(* One benchmark episode: build a cluster, populate it, run one closed-loop
   client through [Syscall] for a fixed, seeded op stream, let the daemons
   converge, check every replica and the final contents, and print one
   JSON object of raw measurements.  run.py repeats episodes in fresh
   processes and turns them into metrics.

     episode.exe --workload NAME --seed N [--trace 0|1] [--spans PATH]
     episode.exe --workload NAME --seed N --stream-digest

   The op stream and the file contents are pure functions of the seed,
   and the cluster's own PRNG seed is fixed, so two episodes with one
   seed must produce identical counts. *)

let ( let* ) = Result.bind
(* Every time the benchmark reports runs on the reference-speed clock. *)
let now = Speed.now

let get what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Errno.to_string e))

(* ------------------------------------------------------------------ *)
(* The client: traced Syscall calls, timed ops, timed daemon steps     *)

let sys name f = Tracer.with_span ("syscall." ^ name) f
let read_file p path = sys "read_file" (fun () -> Syscall.read_file p path)
let write_file p path data = sys "write_file" (fun () -> Syscall.write_file p path data)
let rename p src dst = sys "rename" (fun () -> Syscall.rename p src dst)
let mkdir p path = sys "mkdir" (fun () -> Syscall.mkdir p path)

(* open + pwrite + close: one update op of three system calls. *)
let write_at p path ~off data =
  let* fd = sys "open" (fun () -> Syscall.openf p path Syscall.O_wronly) in
  let written = sys "pwrite" (fun () -> Syscall.pwrite p fd ~off data) in
  let* () = sys "close" (fun () -> Syscall.close p fd) in
  written

type env = {
  cluster : Cluster.t;
  vref : Ids.volume_ref;
  replica_hosts : int list;
}

type recorder = {
  mutable lat_read : float list;  (* µs per read op *)
  mutable lat_update : float list;  (* µs per write/edit/create/rename/mkdir op *)
  mutable failed : int;
  mutable wrong : int;  (* reads or final contents that differ from the model *)
  mutable stalls : float list;  (* ms per tick_daemons call during load *)
  mutable settle_wall : float;  (* seconds of tick_daemons while converging *)
  mutable settle_other : float;  (* seconds of convergence checks, excluded *)
  mutable settle_ticks : int;
  mutable converged : bool;
  mutable check_deltas : (string, int) Hashtbl.t list;
  mutable updates : int;
}

let recorder () =
  {
    lat_read = [];
    lat_update = [];
    failed = 0;
    wrong = 0;
    stalls = [];
    settle_wall = 0.;
    settle_other = 0.;
    settle_ticks = 0;
    converged = true;
    check_deltas = [];
    updates = 0;
  }

let issue r ~update kind f =
  let t0 = now () in
  let res = Tracer.with_span ("op." ^ kind) f in
  let us = (now () -. t0) *. 1e6 in
  if update then begin
    r.lat_update <- us :: r.lat_update;
    r.updates <- r.updates + 1
  end
  else r.lat_read <- us :: r.lat_read;
  match res with Ok () -> () | Error _ -> r.failed <- r.failed + 1

(* A read op that also checks the bytes against the model. *)
let read_op r p path ~expect =
  issue r ~update:false "read" (fun () ->
      let* data = read_file p path in
      if not (Bytes.equal (Bytes.unsafe_of_string data) expect) then r.wrong <- r.wrong + 1;
      Ok ())

let tick env r n =
  let t0 = now () in
  ignore (Tracer.with_span "tick" (fun () -> Cluster.tick_daemons env.cluster n));
  r.stalls <- ((now () -. t0) *. 1e3) :: r.stalls

let replicas env =
  List.map
    (fun i -> Option.get (Cluster.replica (Cluster.host env.cluster i) env.vref))
    env.replica_hosts

(* Drive [tick_daemons] in [step]-tick calls until every replica holds
   identical state, or give up after [budget] ticks.  Only the
   tick_daemons calls count as convergence time; the equality checks
   are timed apart, and their own I/O is taken out of the counts. *)
let settle env r ~step ~budget =
  (* Gossip keeps datagrams in flight on a healthy cluster, so only an
     idle propagation backlog gates the (costly) tree comparison. *)
  let quiet () =
    List.for_all
      (fun i -> Propagation.pending (Cluster.propagation (Cluster.host env.cluster i)) = 0)
      env.replica_hosts
  in
  let check () =
    let t0 = now () in
    let before = Probe.counters env.cluster in
    let same = quiet () && Probe.identical (replicas env) in
    r.check_deltas <- Probe.diff ~before ~after:(Probe.counters env.cluster) :: r.check_deltas;
    r.settle_other <- r.settle_other +. (now () -. t0);
    same
  in
  let rec loop ticks =
    if check () then ticks
    else if ticks >= budget then begin
      r.converged <- false;
      ticks
    end
    else begin
      let t0 = now () in
      ignore (Tracer.with_span "tick" (fun () -> Cluster.tick_daemons env.cluster step));
      r.settle_wall <- r.settle_wall +. (now () -. t0);
      loop (ticks + step)
    end
  in
  r.settle_ticks <- r.settle_ticks + loop 0

(* Gossip clusters: tick at the gossip period until every host holds
   the same membership view (the bootstrap SCALE uses). *)
let settle_membership cluster =
  let rounds = ref 0 in
  while (not (Cluster.membership_converged cluster)) && !rounds < 256 do
    ignore (Cluster.tick_daemons cluster Gossip.default_config.Gossip.period);
    incr rounds
  done;
  if not (Cluster.membership_converged cluster) then
    failwith "bootstrap membership never converged"

(* Deterministic pseudo-random bytes, so content-defined chunking sees
   realistic data rather than a run of one byte. *)
let random_bytes rng n = String.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* What the client has done to the namespace: each path's expected bytes
   (a "/" suffix marks a directory), and the paths the load phase
   touched, which the final check reads back. *)
type model = {
  files : (string, Bytes.t) Hashtbl.t;
  touched : (string, unit) Hashtbl.t;
}

let set m path v =
  Hashtbl.replace m.files path v;
  Hashtbl.replace m.touched path ()

let expected m path = Hashtbl.find m.files path

let move m src dst =
  set m dst (expected m src);
  Hashtbl.remove m.files src;
  Hashtbl.replace m.touched src ()

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* The simulator's own PRNG (gossip peer choice, network draws) is part
   of the system under test, not of its input, so it is fixed; --seed
   makes the inputs: the op stream, edit offsets and file contents.
   Gossip timing otherwise dominates the seed-to-seed spread of every
   count. *)
let cluster_seed = 90210

type workload = {
  name : string;
  trace_config : int -> Workload.trace_config;
  setup : int -> model -> env;
      (* cluster, volume, membership, initial population (recorded in the model) *)
  (* [load seed env r roots model]: the load phase; [roots.(h)] is host
     h's logical root, traced or not. *)
  load : int -> env -> recorder -> Vnode.t array -> model -> unit;
  converge_step : int;
  converge_budget : int;
}

let user_payload tcfg u r =
  String.make tcfg.Workload.t_payload (Char.chr (Char.code 'a' + ((u + r) mod 26)))

(* The SCALE trace driven through Syscall: [host_of u] serves user u;
   renames toggle f<r> <-> g<r>, mkdir targets cycle over t_mkdirs. *)
let replay_trace ~tcfg ~ops ~batch ~ticks ~host_of ~check_reads env r roots model =
  let procs = Array.map (fun root -> Syscall.create ~root) roots in
  let names =
    Array.init tcfg.Workload.t_users (fun _ ->
        Array.init tcfg.Workload.t_files (fun k -> Printf.sprintf "f%d" k))
  in
  let serial = Array.make tcfg.Workload.t_users 0 in
  let n = ref 0 in
  Seq.iter
    (fun { Workload.op_user = u; op_kind; op_rank = k } ->
      let p = procs.(host_of u) in
      let path name = Printf.sprintf "u%d/%s" u name in
      (match op_kind with
       | Workload.Read ->
         let file = path names.(u).(k) in
         if check_reads u then read_op r p file ~expect:(expected model file)
         else issue r ~update:false "read" (fun () -> Result.map ignore (read_file p file))
       | Workload.Write ->
         let file = path names.(u).(k) in
         let data = user_payload tcfg u k in
         issue r ~update:true "write" (fun () ->
             let* () = write_at p file ~off:0 data in
             set model file (Bytes.of_string data);
             Ok ())
       | Workload.Rename ->
         let cur = names.(u).(k) in
         let next = Printf.sprintf "%c%d" (if cur.[0] = 'f' then 'g' else 'f') k in
         issue r ~update:true "rename" (fun () ->
             let* () = rename p (path cur) (path next) in
             names.(u).(k) <- next;
             move model (path cur) (path next);
             Ok ())
       | Workload.Mkdir ->
         let dir = path (Printf.sprintf "m%d" (serial.(u) mod tcfg.Workload.t_mkdirs)) in
         serial.(u) <- serial.(u) + 1;
         issue r ~update:true "mkdir" (fun () ->
             match mkdir p dir with
             | Ok () | Error Errno.EEXIST ->
               set model (dir ^ "/") Bytes.empty;
               Ok ()
             | Error _ as e -> e));
      incr n;
      if !n mod batch = 0 then tick env r ticks)
    (Seq.take ops (Workload.trace tcfg))

let populate_trace env tcfg model =
  let root = get "logical_root" (Cluster.logical_root env.cluster (List.hd env.replica_hosts) env.vref) in
  get "setup_trace" (Workload.setup_trace root tcfg);
  for u = 0 to tcfg.Workload.t_users - 1 do
    for k = 0 to tcfg.Workload.t_files - 1 do
      set model (Printf.sprintf "u%d/f%d" u k) Bytes.empty
    done
  done;
  ignore (Cluster.run_propagation env.cluster);
  ignore (get "converge" (Cluster.converge env.cluster env.vref ~max_rounds:100 ()))

(* partition_heal's population: per side, [nfiles] files of [file_size]
   seeded random bytes in one shared directory. *)
let populate_shared env ~seed ~nfiles ~file_size model =
  let rng = Random.State.make [| seed; 29 |] in
  let p =
    Syscall.create ~root:(get "logical_root" (Cluster.logical_root env.cluster 0 env.vref))
  in
  get "mkdir shared" (Syscall.mkdir p "shared");
  set model "shared/" Bytes.empty;
  for s = 0 to 1 do
    for k = 0 to nfiles - 1 do
      let file = Printf.sprintf "shared/s%df%d" s k in
      let data = random_bytes rng file_size in
      get "populate" (Syscall.write_file p file data);
      set model file (Bytes.of_string data)
    done
  done;
  ignore (Cluster.run_propagation env.cluster);
  ignore (get "converge" (Cluster.converge env.cluster env.vref ~max_rounds:100 ()))

(* zipf_replay: ROADMAP's SCALE configuration. *)
let zipf_replay =
  let nreplicas = 4 in
  let trace_config seed = { Workload.default_trace with Workload.t_seed = seed } in
  {
    name = "zipf_replay";
    trace_config;
    setup =
      (fun seed model ->
        let cluster =
          Cluster.create ~seed:cluster_seed ~nhosts:64 ~block_size:512
            ~disk_blocks_for:(fun i -> if i < nreplicas then 16384 else 256)
            ~ninodes_for:(fun i -> if i < nreplicas then 12288 else 32)
            ~propagation_delay:200 ~reconcile_period:250 ~selection:Logical.Prefer_local
            ~gossip:Gossip.default_config ()
        in
        let replica_hosts = List.init nreplicas Fun.id in
        let vref = get "create_volume" (Cluster.create_volume cluster ~on:replica_hosts) in
        settle_membership cluster;
        let env = { cluster; vref; replica_hosts } in
        populate_trace env (trace_config seed) model;
        env);
    load =
      (fun seed env r roots model ->
        replay_trace ~tcfg:(trace_config seed) ~ops:12_000 ~batch:2000 ~ticks:50
          ~host_of:(fun u -> u mod nreplicas)
          ~check_reads:(fun _ -> true)
          env r roots model);
    converge_step = 50;
    converge_budget = 20_000;
  }

(* bigdir: two replica hosts, two client-only hosts, no gossip, and
   directories 16x the size of zipf_replay's, one per user. *)
let bigdir =
  let trace_config seed =
    {
      Workload.t_seed = seed;
      t_users = 2;
      t_files = 1024;
      t_zipf_s = 1.1;
      t_payload = 256;
      t_mix = { Workload.read_w = 85; write_w = 9; rename_w = 4; mkdir_w = 2 };
      t_mkdirs = 8;
    }
  in
  {
    name = "bigdir";
    trace_config;
    setup =
      (fun seed model ->
        let cluster =
          Cluster.create ~seed:cluster_seed ~nhosts:4 ~block_size:2048
            ~disk_blocks_for:(fun i -> if i < 2 then 16384 else 64)
            ~ninodes_for:(fun i -> if i < 2 then 16384 else 16)
            ~propagation_delay:200 ~reconcile_period:250 ~selection:Logical.Prefer_local ()
        in
        let replica_hosts = [ 0; 1 ] in
        let vref = get "create_volume" (Cluster.create_volume cluster ~on:replica_hosts) in
        let env = { cluster; vref; replica_hosts } in
        populate_trace env (trace_config seed) model;
        env);
    load =
      (fun seed env r roots model ->
        (* User 0 sits on replica host 0, user 1 reaches the volume over
           NFS from client host 2.  Only local reads are checked inline: a
           remote client may legitimately read a replica that is behind. *)
        replay_trace ~tcfg:(trace_config seed) ~ops:3_000 ~batch:100 ~ticks:10
          ~host_of:(fun u -> 2 * u)
          ~check_reads:(fun u -> u = 0)
          env r roots model);
    converge_step = 10;
    converge_budget = 20_000;
  }

(* partition_heal: four replicas, gossip and the journal on, a shared
   directory of large files; each epoch partitions 2|2, runs a
   write-heavy mix on both sides, heals and converges.  Each side edits,
   renames and creates only its own names, so no update conflicts. *)
let partition_heal =
  let nfiles = 8 and file_size = 256 * 1024 and epochs = 4 and ops_per_epoch = 300 in
  let converge_step = 10 and converge_budget = 5_000 in
  let trace_config seed =
    {
      Workload.t_seed = seed;
      t_users = 2;
      t_files = nfiles;
      t_zipf_s = 0.8;
      t_payload = 128;
      t_mix = { Workload.read_w = 30; write_w = 50; rename_w = 10; mkdir_w = 10 };
      t_mkdirs = 1;
    }
  in
  let side_host s = if s = 0 then 0 else 2 in
  {
    name = "partition_heal";
    trace_config;
    setup =
      (fun seed model ->
        let cluster =
          Cluster.create ~seed:cluster_seed ~nhosts:4 ~block_size:4096 ~disk_blocks:8192 ~ninodes:4096
            ~propagation_delay:20 ~reconcile_period:100 ~journal_blocks:512
            ~gossip:Gossip.default_config ~dir_merge:`Crdt ()
        in
        let replica_hosts = [ 0; 1; 2; 3 ] in
        let vref = get "create_volume" (Cluster.create_volume cluster ~on:replica_hosts) in
        settle_membership cluster;
        let env = { cluster; vref; replica_hosts } in
        populate_shared env ~seed ~nfiles ~file_size model;
        env);
    load =
      (fun seed env r roots model ->
        let tcfg = trace_config seed in
        let rng = Random.State.make [| seed; 17 |] in
        let procs = Array.map (fun root -> Syscall.create ~root) roots in
        let names =
          Array.init 2 (fun s -> Array.init nfiles (fun k -> Printf.sprintf "s%df%d" s k))
        in
        let serial = ref 0 in
        let stream = ref (Workload.trace tcfg) in
        for _ = 1 to epochs do
          Cluster.partition env.cluster [ [ 0; 1 ]; [ 2; 3 ] ];
          for i = 1 to ops_per_epoch do
            (match !stream () with
             | Seq.Nil -> assert false
             | Seq.Cons ({ Workload.op_user = s; op_kind; op_rank = k }, rest) ->
               stream := rest;
               let p = procs.(side_host s) in
               let path name = "shared/" ^ name in
               let file = path names.(s).(k) in
               (match op_kind with
                | Workload.Read -> read_op r p file ~expect:(expected model file)
                | Workload.Write ->
                  let data = random_bytes rng tcfg.Workload.t_payload in
                  let off = Random.State.int rng (file_size - String.length data) in
                  issue r ~update:true "edit" (fun () ->
                      let* () = write_at p file ~off data in
                      let b = expected model file in
                      Bytes.blit_string data 0 b off (String.length data);
                      set model file b;
                      Ok ())
                | Workload.Rename ->
                  let cur = names.(s).(k) in
                  let next = Printf.sprintf "s%d%c%d" s (if cur.[2] = 'f' then 'g' else 'f') k in
                  issue r ~update:true "rename" (fun () ->
                      let* () = rename p (path cur) (path next) in
                      names.(s).(k) <- next;
                      move model (path cur) (path next);
                      Ok ())
                | Workload.Mkdir ->
                  incr serial;
                  if k mod 2 = 0 then begin
                    let file = path (Printf.sprintf "s%dc%d" s !serial) in
                    let data = random_bytes rng 512 in
                    issue r ~update:true "create" (fun () ->
                        let* () = write_file p file data in
                        set model file (Bytes.of_string data);
                        Ok ())
                  end
                  else begin
                    let dir = path (Printf.sprintf "s%dd%d" s !serial) in
                    issue r ~update:true "mkdir" (fun () ->
                        let* () = mkdir p dir in
                        set model (dir ^ "/") Bytes.empty;
                        Ok ())
                  end));
            if i mod 50 = 0 then tick env r 10
          done;
          Cluster.heal env.cluster;
          settle env r ~step:converge_step ~budget:converge_budget
        done);
    converge_step;
    converge_budget;
  }

let workloads = [ zipf_replay; bigdir; partition_heal ]

(* ------------------------------------------------------------------ *)
(* One episode                                                         *)

(* Every path the load phase touched, read back through host [h]'s
   logical layer after convergence: a lost or stale update, or a renamed
   name still present, shows up here.  Returns the number of mismatches. *)
let check_model env h model =
  let p = Syscall.create ~root:(get "logical_root" (Cluster.logical_root env.cluster h env.vref)) in
  Hashtbl.fold
    (fun path () bad ->
      let n = String.length path in
      let is_dir = path.[n - 1] = '/' in
      let name = if is_dir then String.sub path 0 (n - 1) else path in
      let ok =
        match Hashtbl.find_opt model.files path, Syscall.stat p name with
        | None, Error Errno.ENOENT -> true
        | Some _, Ok a when is_dir -> a.Vnode.kind = Vnode.VDIR
        | Some expect, Ok _ -> (
          match Syscall.read_file p name with
          | Ok data -> Bytes.equal (Bytes.unsafe_of_string data) expect
          | Error _ -> false)
        | _ -> false
      in
      if ok then bad else bad + 1)
    model.touched 0

let json_floats l =
  "[" ^ String.concat "," (List.rev_map (Printf.sprintf "%.1f") l) ^ "]"

let json_string s = "\"" ^ String.escaped s ^ "\""

let episode w ~seed ~traced ~spans_out =
  let model = { files = Hashtbl.create 4096; touched = Hashtbl.create 1024 } in
  Speed.start ();
  let t0 = now () in
  let env = w.setup seed model in
  Hashtbl.reset model.touched;
  let setup_s = now () -. t0 in
  let r = recorder () in
  (* Every workload's client runs on hosts 0-3; grafting (and NFS
     mounting) happens before the load phase starts. *)
  let roots =
    Array.init 4 (fun h ->
        let root = get "logical_root" (Cluster.logical_root env.cluster h env.vref) in
        if traced then Tracer.vnode root else root)
  in
  (* Start of the load phase: counters are differenced from here, and the
     registry is cleared so the prop.lag histogram holds load-phase
     updates only. *)
  let obs = Cluster.obs env.cluster in
  Metrics.reset obs.Obs.metrics;
  let before = Probe.counters env.cluster in
  Tracer.enabled := traced;
  let t_load = now () in
  w.load seed env r roots model;
  let load_s = now () -. t_load -. r.settle_wall -. r.settle_other in
  (* End of load: converge through the daemons alone (partition_heal has
     already converged after its last heal, so this is one check). *)
  settle env r ~step:w.converge_step ~budget:w.converge_budget;
  Tracer.enabled := false;
  let counts = Probe.diff ~before ~after:(Probe.counters env.cluster) in
  List.iter (Probe.subtract counts) r.check_deltas;
  let m = obs.Obs.metrics in
  let pct p = Option.value ~default:0 (Metrics.percentile m "prop.lag" p) in
  let lag_count = Metrics.hist_count m "prop.lag" in
  let lag_p50 = pct 50. and lag_p99 = pct 99. in
  let clock_end = Clock.now (Cluster.clock env.cluster) in
  let wrong_final = if r.converged then check_model env 0 model else 0 in
  Speed.stop ();
  (match spans_out with Some path when traced -> Tracer.write path | _ -> ());
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. (1024. *. 1024.)
  in
  let counts_json =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort compare
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.map (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v)
    |> String.concat ","
  in
  let spans_json =
    Tracer.totals ()
    |> List.map (fun (name, calls, us, self) ->
           Printf.sprintf "%s:[%d,%.1f,%.1f]" (json_string name) calls us self)
    |> String.concat ","
  in
  let gc = Gc.get () in
  Printf.printf
    "{\"workload\":%s,\"seed\":%d,\"traced\":%b,\"ocaml\":%s,\"gc\":{\"minor_heap_words\":%d,\"space_overhead\":%d,\"max_overhead\":%d},\"setup_s\":%.6f,\"load_s\":%.6f,\"ops\":%d,\"updates\":%d,\"failed\":%d,\"wrong\":%d,\"wrong_final\":%d,\"converged\":%b,\"converge_s\":%.6f,\"converge_ticks\":%d,\"check_s\":%.6f,\"clock_end\":%d,\"lag\":{\"count\":%d,\"p50\":%d,\"p99\":%d},\"heap_mb\":%.3f,\"kernel_ms\":%.4f,\"lat_read_us\":%s,\"lat_update_us\":%s,\"stall_ms\":%s,\"counts\":{%s},\"spans\":{%s}}\n"
    (json_string w.name) seed traced (json_string Sys.ocaml_version) gc.Gc.minor_heap_size
    gc.Gc.space_overhead gc.Gc.max_overhead setup_s load_s
    (List.length r.lat_read + List.length r.lat_update)
    r.updates r.failed r.wrong wrong_final r.converged r.settle_wall r.settle_ticks
    r.settle_other clock_end lag_count lag_p50 lag_p99 heap_mb
    (Speed.kernel_median () *. 1e3)
    (json_floats r.lat_read)
    (json_floats r.lat_update)
    (String.concat "," (List.rev_map (Printf.sprintf "%.3f") r.stalls)
     |> Printf.sprintf "[%s]")
    counts_json spans_json

(* Digest of the first ops of the workload's op stream, for the check
   that a different seed gives a different stream. *)
let stream_digest w seed =
  Seq.take 2000 (Workload.trace (w.trace_config seed))
  |> Seq.map (fun { Workload.op_user; op_kind; op_rank } ->
         Printf.sprintf "%d:%d:%d" op_user (Hashtbl.hash op_kind) op_rank)
  |> List.of_seq |> String.concat ";" |> Digest.string |> Digest.to_hex

let () =
  (* The benchmark owns the GC policy: set explicitly here, recorded in
     every episode's output. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 120 };
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let spans_out = ref None and digest_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the op stream, edit offsets and file contents");
      ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1 record spans");
      ("--spans", Arg.String (fun p -> spans_out := Some p), "PATH where a traced episode writes its spans");
      ("--stream-digest", Arg.Set digest_only, " print the op stream digest and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "episode.exe --workload NAME --seed N [--trace 0|1] [--spans PATH]";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w ->
    if !digest_only then print_endline (stream_digest w !seed)
    else episode w ~seed:!seed ~traced:!traced ~spans_out:!spans_out
