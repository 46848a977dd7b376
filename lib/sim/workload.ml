let ( let* ) = Result.bind

(* Zipf(s) over ranks 1..n by inverse-CDF on precomputed cumulative
   weights. *)
let zipf_sampler ~n ~s rng =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let cumulative = Array.make n 0.0 in
  let total =
    Array.fold_left
      (fun (acc, i) w ->
        cumulative.(i) <- acc +. w;
        (acc +. w, i + 1))
      (0.0, 0) weights
    |> fst
  in
  fun () ->
    let x = Random.State.float rng total in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) < x then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* The trace generator: per-user working sets, Zipfian file popularity
   within each set, a read/write/rename/mkdir mix, streamed lazily so
   replaying millions of ops never materializes the trace. *)

type op_kind = Read | Write | Rename | Mkdir

type mix = { read_w : int; write_w : int; rename_w : int; mkdir_w : int }

type trace_config = {
  t_seed : int;
  t_users : int;
  t_files : int;
  t_zipf_s : float;
  t_payload : int;
  t_mix : mix;
  t_mkdirs : int;
}

let default_trace =
  {
    t_seed = 7;
    t_users = 32;
    t_files = 64;
    t_zipf_s = 1.1;
    t_payload = 256;
    t_mix = { read_w = 70; write_w = 24; rename_w = 4; mkdir_w = 2 };
    t_mkdirs = 8;
  }

type op = { op_user : int; op_kind : op_kind; op_rank : int }

let check_trace cfg =
  let { read_w; write_w; rename_w; mkdir_w } = cfg.t_mix in
  if
    cfg.t_users <= 0 || cfg.t_files <= 0 || cfg.t_mkdirs <= 0
    || cfg.t_payload < 0 || read_w < 0 || write_w < 0 || rename_w < 0
    || mkdir_w < 0
    || read_w + write_w + rename_w + mkdir_w <= 0
  then invalid_arg "Workload: bad trace config"

let trace cfg =
  check_trace cfg;
  let rng = Random.State.make [| cfg.t_seed; 0x7ace |] in
  let pick_rank = zipf_sampler ~n:cfg.t_files ~s:cfg.t_zipf_s rng in
  let { read_w; write_w; rename_w; mkdir_w } = cfg.t_mix in
  let total = read_w + write_w + rename_w + mkdir_w in
  (* Every op draws user, kind and rank — in that order — so the stream
     is a pure function of the seed regardless of the mix.  The nodes
     are not memoized: draws happen at forcing time, so iterate the
     sequence once (every fresh [trace cfg] restarts identically). *)
  let rec next () =
    let op_user = Random.State.int rng cfg.t_users in
    let k = Random.State.int rng total in
    let op_kind =
      if k < read_w then Read
      else if k < read_w + write_w then Write
      else if k < read_w + write_w + rename_w then Rename
      else Mkdir
    in
    let op_rank = pick_rank () in
    Seq.Cons ({ op_user; op_kind; op_rank }, next)
  in
  next

let user_dir_name u = Printf.sprintf "u%d" u

let setup_trace root cfg =
  check_trace cfg;
  let rec users u =
    if u >= cfg.t_users then Ok ()
    else
      let* dir = root.Vnode.mkdir (user_dir_name u) in
      let rec files r =
        if r >= cfg.t_files then Ok ()
        else
          let* _f = dir.Vnode.create (Printf.sprintf "f%d" r) in
          files (r + 1)
      in
      let* () = files 0 in
      users (u + 1)
  in
  users 0

type trace_stats = {
  tr_reads : int;
  tr_writes : int;
  tr_renames : int;
  tr_mkdirs : int;
  tr_errors : int;
}

let replay ~root_for ?(batch = 0) ?on_batch cfg ~ops =
  check_trace cfg;
  if ops < 0 then invalid_arg "Workload.replay";
  (* Per-user mutable replay state: the cached directory vnode (one walk
     per user, not per op), each file's current name (renames toggle
     f<r> <-> g<r>, so the trace never references a stale name), and the
     cycling scratch-dir serial. *)
  let dirs = Array.make cfg.t_users None in
  let names =
    Array.init cfg.t_users (fun _ ->
        Array.init cfg.t_files (fun r -> Printf.sprintf "f%d" r))
  in
  let serial = Array.make cfg.t_users 0 in
  let reads = ref 0 and writes = ref 0 and renames = ref 0 in
  let mkdirs = ref 0 and errors = ref 0 in
  let payload u r =
    String.make (max 1 cfg.t_payload)
      (Char.chr (Char.code 'a' + ((u + r) mod 26)))
  in
  let user_dir u =
    match dirs.(u) with
    | Some d -> Ok d
    | None ->
      (match (root_for u).Vnode.lookup (user_dir_name u) with
       | Ok d ->
         dirs.(u) <- Some d;
         Ok d
       | Error _ as e -> e)
  in
  let apply { op_user = u; op_kind; op_rank = r } =
    let outcome =
      let* dir = user_dir u in
      match op_kind with
      | Read ->
        let* f = dir.Vnode.lookup names.(u).(r) in
        let* (_ : string) = f.Vnode.read ~off:0 ~len:cfg.t_payload in
        incr reads;
        Ok ()
      | Write ->
        let* f = dir.Vnode.lookup names.(u).(r) in
        let* () = f.Vnode.write ~off:0 (payload u r) in
        incr writes;
        Ok ()
      | Rename ->
        let cur = names.(u).(r) in
        let next =
          Printf.sprintf "%c%d" (if cur.[0] = 'f' then 'g' else 'f') r
        in
        let* () = dir.Vnode.rename cur dir next in
        names.(u).(r) <- next;
        incr renames;
        Ok ()
      | Mkdir ->
        let name = Printf.sprintf "m%d" (serial.(u) mod cfg.t_mkdirs) in
        serial.(u) <- serial.(u) + 1;
        (match dir.Vnode.mkdir name with
         | Ok _ | Error Errno.EEXIST ->
           (* The scratch names cycle; recreating an existing one still
              exercises the namespace path and is not an error. *)
           incr mkdirs;
           Ok ()
         | Error _ as e -> e)
    in
    match outcome with
    | Ok () -> ()
    | Error _ ->
      (* Count and drop the cached handle: a failure may mean the mount
         or graft behind it went away. *)
      dirs.(u) <- None;
      incr errors
  in
  let stream = ref (trace cfg) in
  let completed = ref 0 in
  while !completed < ops do
    (match !stream () with
     | Seq.Nil -> assert false (* the trace is infinite *)
     | Seq.Cons (op, rest) ->
       apply op;
       stream := rest);
    incr completed;
    match on_batch with
    | Some f when batch > 0 && !completed mod batch = 0 -> f !completed
    | _ -> ()
  done;
  {
    tr_reads = !reads;
    tr_writes = !writes;
    tr_renames = !renames;
    tr_mkdirs = !mkdirs;
    tr_errors = !errors;
  }
