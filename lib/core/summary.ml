module Vv = Version_vector

let ( let* ) = Result.bind

type fidpath = Ids.file_id list

(* Every bump is [rid:seq] with [seq] increasing, so the latest [seq]
   stands for a directory's whole pending vector. *)
type entry = { path : fidpath; mutable seq : int }

type t = {
  (* Pending bumps, keyed by the path's fids in hex, joined by '/'.  A
     flush writes in this table's iteration order, which decides what
     the block cache holds when: another key or hash moves the storage
     counts. *)
  pending : (string, entry) Hashtbl.t;
  (* The change index: per directory fid, per child fid, the latest
     event noted since [since] that changed the child or its subtree.
     Keyed by fid, so a directory's stamps travel with it when it
     moves. *)
  child_stamps : (Ids.file_id, (Ids.file_id, int) Hashtbl.t) Hashtbl.t;
  since : int;
  (* Per peer, the passes this replica has completed against it since
     it attached. *)
  passes : (Ids.replica_id, pass) Hashtbl.t;
}

(* The tick of the latest completed pass, and whether any pass walked
   the volume (rather than pruning at the root). *)
and pass = { mutable at : int; mutable walked : bool }

type io = {
  rid : Ids.replica_id;
  counters : Counters.t;
  persist_watermark : unit -> (unit, Errno.t) result;
  aux_dir : fidpath -> (Vnode.t * Ids.file_id, Errno.t) result;
}

let create ~since =
  {
    pending = Hashtbl.create 64;
    child_stamps = Hashtbl.create 64;
    since;
    passes = Hashtbl.create 4;
  }

let key path = String.concat "/" (List.map Ids.fid_to_hex path)

let stamp t dir child seq =
  match Hashtbl.find_opt t.child_stamps dir with
  | Some children -> Hashtbl.replace children child seq
  | None ->
    let children = Hashtbl.create 8 in
    Hashtbl.replace children child seq;
    Hashtbl.replace t.child_stamps dir children

let note t path ~changed ~seq =
  let rec go key prefix_rev rest =
    (match Hashtbl.find_opt t.pending key with
     | Some e -> e.seq <- seq
     | None -> Hashtbl.replace t.pending key { path = List.rev prefix_rev; seq });
    match rest with
    | [] -> ()
    | fid :: tl ->
      let hex = Ids.fid_to_hex fid in
      go (if prefix_rev = [] then hex else key ^ "/" ^ hex) (fid :: prefix_rev) tl
  in
  go "" [] path;
  let rec stamp_path dir = function
    | [] -> List.iter (fun child -> stamp t dir child seq) changed
    | fid :: rest ->
      stamp t dir fid seq;
      stamp_path fid rest
  in
  stamp_path Ids.root_fid path

(* Only a floor at or above [since] filters.  Below it lie events from
   before the attach, which the index never saw, and the numbers of
   events a crash lost before their watermark was written, which the
   replica issues again from [since] on. *)
let stamped t ~dir ~floor =
  match floor with
  | Some floor when floor >= t.since ->
    let children = Hashtbl.find_opt t.child_stamps dir in
    Some
      (fun child ->
        match Option.bind children (fun c -> Hashtbl.find_opt c child) with
        | Some seq -> seq > floor
        | None -> false)
  | Some _ | None -> None

let floor t ~peer own =
  match Hashtbl.find_opt t.passes peer, own with
  | Some { walked = true; _ }, Some v when Vv.get v peer > 0 -> Some (Vv.get v peer)
  | _, _ -> None

let passed t ~peer ~tick ~walked =
  match Hashtbl.find_opt t.passes peer with
  | Some p ->
    p.at <- tick;
    p.walked <- p.walked || walked
  | None -> Hashtbl.replace t.passes peer { at = tick; walked }

let caught_up t ~peer ~since =
  match Hashtbl.find_opt t.passes peer with Some p -> p.at > since | None -> false

let pending ~rid = function Some e -> Vv.singleton rid e.seq | None -> Vv.empty
let stored aux = Option.value ~default:Vv.empty aux.Aux_attrs.summary
let own t ~rid path aux =
  Vv.merge (stored aux) (pending ~rid (Hashtbl.find_opt t.pending (key path)))

(* The one fold step: merge [v] into the directory's stored vector,
   writing the aux file only when that changes it.  Whether it wrote. *)
let fold io path v =
  let* dir, fid = io.aux_dir path in
  let* aux = Aux_attrs.load ~dir fid in
  let merged = Vv.merge (stored aux) v in
  match aux.Aux_attrs.summary with
  | Some s when Vv.equal s merged -> Ok false
  | Some _ | None ->
    let* () = Aux_attrs.store ~dir fid { aux with Aux_attrs.summary = Some merged } in
    Ok true

let flush t io =
  if Hashtbl.length t.pending = 0 then Ok 0
  else
    let* () = io.persist_watermark () in
    let rec go n = function
      | [] -> Ok n
      | (k, e) :: rest ->
        let* wrote =
          match fold io e.path (Vv.singleton io.rid e.seq) with
          | Error Errno.ENOENT -> Ok false
          | r -> r
        in
        Hashtbl.remove t.pending k;
        go (if wrote then n + 1 else n) rest
    in
    let* n = go 0 (Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.pending []) in
    Hashtbl.reset t.pending;
    Counters.add io.counters "phys.summary.flush" n;
    Ok n

let before_move t io = function
  | Aux_attrs.Freg -> Ok ()
  | Aux_attrs.Fdir | Aux_attrs.Fgraft -> Result.map ignore (flush t io)

let join t io path served =
  let k = key path in
  let e = Hashtbl.find_opt t.pending k in
  let* () = if Option.is_none e then Ok () else io.persist_watermark () in
  let* (_ : bool) = fold io path (Vv.merge (pending ~rid:io.rid e) served) in
  Hashtbl.remove t.pending k;
  Ok ()

let prunes ~own ~served =
  match own, served with Some o, Some s -> Vv.dominates o s | _, _ -> false
