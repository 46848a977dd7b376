type event =
  | Lookup of int * string * int
  | Create of int * string * int
  | Mkdir of int * string * int
  | Remove of int * string
  | Rmdir of int * string
  | Rename of int * string * int * string
  | Link of int * int * string   (* dir, target, name *)
  | Getattr of int
  | Setattr of int * Vnode.setattr
  | Readdir of int
  | Read of int * int * int
  | Write of int * int * int
  | Open of int
  | Close of int

type t = { mutable events : event list (* reversed *); mutable next_id : int }

type Vnode.vdata += Traced of t * int * Vnode.t  (* trace, id, lower *)

let create () = { events = []; next_id = 1 }

let note t ev = t.events <- ev :: t.events

let events t = List.rev t.events
let length t = List.length t.events

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let rec make t id (lower : Vnode.t) : Vnode.t =
  let child_result parent name mk_event result =
    match result with
    | Error _ as e -> e
    | Ok child ->
      let child_id = fresh_id t in
      note t (mk_event parent name child_id);
      Ok (make t child_id child)
  in
  let unwrap (v : Vnode.t) =
    match v.Vnode.data with
    | Traced (t', id', lower') when t' == t -> Ok (id', lower')
    | _ -> Error Errno.EXDEV
  in
  let logged ev result =
    (match result with Ok _ -> note t ev | Error _ -> ());
    result
  in
  {
    Vnode.data = Traced (t, id, lower);
    getattr = (fun () -> logged (Getattr id) (lower.Vnode.getattr ()));
    setattr = (fun sa -> logged (Setattr (id, sa)) (lower.Vnode.setattr sa));
    lookup =
      (fun name -> child_result id name (fun p n c -> Lookup (p, n, c)) (lower.Vnode.lookup name));
    create =
      (fun name -> child_result id name (fun p n c -> Create (p, n, c)) (lower.Vnode.create name));
    mkdir =
      (fun name -> child_result id name (fun p n c -> Mkdir (p, n, c)) (lower.Vnode.mkdir name));
    remove = (fun name -> logged (Remove (id, name)) (lower.Vnode.remove name));
    rmdir = (fun name -> logged (Rmdir (id, name)) (lower.Vnode.rmdir name));
    rename =
      (fun sname dst dname ->
        match unwrap dst with
        | Error _ as e -> e
        | Ok (dst_id, dst_lower) ->
          logged (Rename (id, sname, dst_id, dname)) (lower.Vnode.rename sname dst_lower dname));
    link =
      (fun target name ->
        match unwrap target with
        | Error _ as e -> e
        | Ok (target_id, target_lower) ->
          logged (Link (id, target_id, name)) (lower.Vnode.link target_lower name));
    readdir = (fun () -> logged (Readdir id) (lower.Vnode.readdir ()));
    read = (fun ~off ~len -> logged (Read (id, off, len)) (lower.Vnode.read ~off ~len));
    write =
      (fun ~off data ->
        logged (Write (id, off, String.length data)) (lower.Vnode.write ~off data));
    openv = (fun flag -> logged (Open id) (lower.Vnode.openv flag));
    closev = (fun () -> logged (Close id) (lower.Vnode.closev ()));
    fsync = (fun () -> lower.Vnode.fsync ());
    inactive = (fun () -> lower.Vnode.inactive ());
  }

let wrap t root = make t 0 root

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replay_stats = { applied : int; failed : int }

(* Deterministic synthetic payload for replayed writes. *)
let payload id len = String.init len (fun i -> Char.chr (Char.code 'a' + ((id + i) mod 26)))

let replay root trace =
  let table : (int, Vnode.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace table 0 root;
  let applied = ref 0 and failed = ref 0 in
  let resolve id = Hashtbl.find_opt table id in
  let outcome = function
    | Some (Ok _) -> incr applied
    | Some (Error _) | None -> incr failed
  in
  let with_vnode id f = outcome (Option.map f (resolve id)) in
  let bind_child parent name child_id op =
    match resolve parent with
    | None -> incr failed
    | Some v ->
      (match op v name with
       | Ok child ->
         Hashtbl.replace table child_id child;
         incr applied
       | Error _ -> incr failed)
  in
  List.iter
    (fun ev ->
      match ev with
      | Lookup (p, n, c) -> bind_child p n c (fun v name -> v.Vnode.lookup name)
      | Create (p, n, c) -> bind_child p n c (fun v name -> v.Vnode.create name)
      | Mkdir (p, n, c) -> bind_child p n c (fun v name -> v.Vnode.mkdir name)
      | Remove (id, n) -> with_vnode id (fun v -> v.Vnode.remove n)
      | Rmdir (id, n) -> with_vnode id (fun v -> v.Vnode.rmdir n)
      | Rename (s, sn, d, dn) ->
        (match resolve s, resolve d with
         | Some sv, Some dv -> outcome (Some (sv.Vnode.rename sn dv dn))
         | _, _ -> incr failed)
      | Link (d, tgt, n) ->
        (match resolve d, resolve tgt with
         | Some dv, Some tv -> outcome (Some (dv.Vnode.link tv n))
         | _, _ -> incr failed)
      | Getattr id -> with_vnode id (fun v -> Result.map ignore (v.Vnode.getattr ()))
      | Setattr (id, sa) -> with_vnode id (fun v -> v.Vnode.setattr sa)
      | Readdir id -> with_vnode id (fun v -> Result.map ignore (v.Vnode.readdir ()))
      | Read (id, off, len) ->
        with_vnode id (fun v -> Result.map ignore (v.Vnode.read ~off ~len))
      | Write (id, off, len) -> with_vnode id (fun v -> v.Vnode.write ~off (payload id len))
      | Open id -> with_vnode id (fun v -> v.Vnode.openv Vnode.Read_write)
      | Close id -> with_vnode id (fun v -> v.Vnode.closev ()))
    trace;
  { applied = !applied; failed = !failed }
