(* Benchmark-local wall-clock tracing.

   Spans are recorded from outside the program, around the calls the
   benchmark makes into each layer's public functions: [Syscall] calls,
   the logical root vnode (and every vnode reached through it), and
   [Cluster.tick_daemons].  Nothing inside the library is instrumented,
   so wall time below the logical layer (NFS, physical, UFS) is not
   separated here.  Spans stay in memory and are written out once, when
   the episode ends. *)

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  op : int;  (* root span id: every span of one foreground op or tick shares it *)
  name : string;
  start : float;
  mutable stop : float;
  mutable child : float;  (* seconds covered by direct children *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 1

let with_span name f =
  if not !enabled then f ()
  else begin
    let parent, op =
      match !stack with [] -> (0, !next_id) | p :: _ -> (p.id, p.op)
    in
    let s =
      { id = !next_id; parent; op; name; start = Unix.gettimeofday (); stop = 0.; child = 0. }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.stop <- Unix.gettimeofday ();
      stack := List.tl !stack;
      (match !stack with
       | p :: _ -> p.child <- p.child +. (s.stop -. s.start)
       | [] -> ());
      spans := s :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Per span name: calls, inclusive microseconds, self microseconds (the
   span's duration minus what its direct children cover). *)
let totals () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let c, t, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (c + 1, t +. dur, self +. (dur -. s.child)))
    !spans;
  Hashtbl.fold (fun name (c, t, self) acc -> (name, c, t *. 1e6, self *. 1e6) :: acc) tbl []
  |> List.sort compare

(* Chrome trace-event format ("X" complete events), loadable in
   chrome://tracing or Perfetto. *)
let write path =
  let oc = open_out path in
  let t0 = match List.rev !spans with [] -> 0. | s :: _ -> s.start in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.op)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* The logical layer seen through a null-layer-style interposer: every
   vnode operation becomes a "logical.<op>" span, vnodes coming back are
   wrapped in turn, and sibling arguments ([rename]'s destination
   directory, [link]'s target) are unwrapped before they reach the
   layer below. *)
type Vnode.vdata += Traced of Vnode.t

let rec vnode (lower : Vnode.t) : Vnode.t =
  let sp op f = with_span ("logical." ^ op) f in
  let up r = Result.map vnode r in
  let down (v : Vnode.t) =
    match v.Vnode.data with Traced l -> Ok l | _ -> Error Errno.EXDEV
  in
  {
    Vnode.data = Traced lower;
    getattr = (fun () -> sp "getattr" lower.getattr);
    setattr = (fun a -> sp "setattr" (fun () -> lower.setattr a));
    lookup = (fun n -> sp "lookup" (fun () -> up (lower.lookup n)));
    create = (fun n -> sp "create" (fun () -> up (lower.create n)));
    mkdir = (fun n -> sp "mkdir" (fun () -> up (lower.mkdir n)));
    remove = (fun n -> sp "remove" (fun () -> lower.remove n));
    rmdir = (fun n -> sp "rmdir" (fun () -> lower.rmdir n));
    rename =
      (fun src dir dst ->
        sp "rename" (fun () -> Result.bind (down dir) (fun d -> lower.rename src d dst)));
    link =
      (fun target name ->
        sp "link" (fun () -> Result.bind (down target) (fun t -> lower.link t name)));
    readdir = (fun () -> sp "readdir" lower.readdir);
    read = (fun ~off ~len -> sp "read" (fun () -> lower.read ~off ~len));
    write = (fun ~off data -> sp "write" (fun () -> lower.write ~off data));
    openv = (fun flag -> sp "openv" (fun () -> lower.openv flag));
    closev = (fun () -> sp "closev" lower.closev);
    fsync = (fun () -> sp "fsync" lower.fsync);
    inactive = (fun () -> sp "inactive" lower.inactive);
  }
