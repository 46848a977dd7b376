module Vv = Version_vector

type selection = Most_recent | Prefer_local | First_available

type replica_conn = {
  rc_rid : Ids.replica_id;
  rc_host : string;
  mutable rc_root : Vnode.t option;  (* connected lazily, dropped on failure *)
  mutable rc_unreachable_at : int option;  (* tick of its last EUNREACHABLE *)
}

type graft = {
  g_vref : Ids.volume_ref;
  mutable g_replicas : replica_conn list;
  mutable g_last_used : int;
  g_auto : bool;
}

type lock = { mutable readers : int; mutable writer : bool }

type t = {
  host : string;
  clock : Clock.t;
  connect : Remote.connector;
  selection : selection;
  detector : Gossip.detector;
  local_replica : Ids.volume_ref -> Physical.t option;
  nvc : New_version_cache.t;
  grafts : (int * int, graft) Hashtbl.t;
  locks : (int * int * int * int, lock) Hashtbl.t;  (* alloc, vol, fid issuer, fid uniq *)
  counters : Counters.t;
  obs : Obs.t;
}

let create ~selection ~obs ~detector ~local_replica ~nvc ~host ~clock ~connect () =
  {
    host;
    clock;
    connect;
    selection;
    detector;
    local_replica;
    nvc;
    grafts = Hashtbl.create 8;
    locks = Hashtbl.create 16;
    counters = Obs.counters obs;
    obs;
  }

let counters t = t.counters

(* Every mutating operation is stamped with a fresh causal span here, at
   the top of the stack: the span id rides the ambient context down
   through any interposed NFS, the physical layer, and the journal, and
   is multicast onward with the update notification. *)
let traced t label f =
  let spans = t.obs.Obs.spans in
  let id = Span.start spans ~host:t.host ~tick:(Clock.now t.clock) label in
  Counters.incr t.counters "logical.updates";
  let ctx =
    Span.make_ctx ~spans ~id ~host:t.host ~now:(fun () -> Clock.now t.clock)
  in
  Span.with_ctx ctx f

let vkey (v : Ids.volume_ref) = (v.Ids.alloc, v.Ids.vol)

let replica_conn rid host =
  { rc_rid = rid; rc_host = host; rc_root = None; rc_unreachable_at = None }

let graft_volume t vref ~replicas =
  if not (Hashtbl.mem t.grafts (vkey vref)) then
    Hashtbl.replace t.grafts (vkey vref)
      {
        g_vref = vref;
        g_replicas = List.map (fun (r, h) -> replica_conn r h) replicas;
        g_last_used = Clock.now t.clock;
        g_auto = false;
      }

let autograft_volume t vref ~replicas =
  if not (Hashtbl.mem t.grafts (vkey vref)) then begin
    Counters.incr t.counters "logical.autograft";
    Hashtbl.replace t.grafts (vkey vref)
      {
        g_vref = vref;
        g_replicas = List.map (fun (r, h) -> replica_conn r h) replicas;
        g_last_used = Clock.now t.clock;
        g_auto = true;
      }
  end

let grafted t =
  Hashtbl.fold
    (fun _ g acc -> (g.g_vref, List.map (fun rc -> (rc.rc_rid, rc.rc_host)) g.g_replicas) :: acc)
    t.grafts []

let prune_grafts t ~idle =
  let now = Clock.now t.clock in
  let victims =
    Hashtbl.fold
      (fun key g acc -> if g.g_auto && now - g.g_last_used >= idle then key :: acc else acc)
      t.grafts []
  in
  List.iter (Hashtbl.remove t.grafts) victims;
  Counters.add t.counters "logical.prune" (List.length victims);
  List.length victims

let reset_connections t =
  Hashtbl.iter
    (fun _ g ->
      List.iter
        (fun rc ->
          rc.rc_root <- None;
          rc.rc_unreachable_at <- None)
        g.g_replicas)
    t.grafts

let find_graft t vref =
  match Hashtbl.find_opt t.grafts (vkey vref) with
  | Some g -> Ok g
  | None -> Error Errno.ENOENT

let ( let* ) = Result.bind

(* The negative entry: a replica that answered EUNREACHABLE is marked
   with the current tick, and any other answer clears the mark.  In the
   simulator a partition, sever or flaky window only changes when the
   clock moves, so a call that failed this tick would fail again. *)
let note t rc r =
  (match r with
   | Error Errno.EUNREACHABLE -> rc.rc_unreachable_at <- Some (Clock.now t.clock)
   | _ -> rc.rc_unreachable_at <- None);
  r

(* Connect (or reuse) the physical root of one replica. *)
let replica_root t g rc =
  match rc.rc_root with
  | Some root -> Ok root
  | None ->
    (match note t rc (t.connect ~host:rc.rc_host ~vref:g.g_vref ~rid:rc.rc_rid) with
     | Ok root ->
       rc.rc_root <- Some root;
       Ok root
     | Error _ as e -> e)

(* A version poll's bonus for a stored copy: it outranks any history
   size. *)
let stored = 1_000_000

(* The reachable peers a [Most_recent] poll of [path] may leave out,
   and the origin of a pending new-version-cache entry for [path].  A
   peer may hold a version of [path] this host has not heard of while
   such an entry names it, while the cache records it as a holder of a
   version it installed by reconciliation after this host last caught
   up with it, and until the local replica has caught up with it at
   all: a reconciliation pass from it completed after its last doubt
   and after the attach (the record is volatile).  As long as
   notifications are delivered, any other peer holds nothing newer
   than the local copy: what it wrote or installed by reconciliation
   since was announced here, and what it pulled came from an origin
   that announced it here.  None is left out on a host that stores no
   replica of the volume or cannot reach its own, nor on a host without
   a failure detector ({!Gossip.no_detector}), which doubts every peer
   at every tick and so cannot tell that a notification was lost. *)
let unasked t g path reachable =
  match t.local_replica g.g_vref with
  | None -> ([], None)
  | Some phys ->
    let rid = Physical.rid phys in
    let local rc = rc.rc_rid = rid && rc.rc_host = t.host in
    let caught_up peer ~since = Physical.caught_up phys ~peer ~since in
    let origin =
      Option.map (fun e -> e.New_version_cache.origin_rid) (New_version_cache.find t.nvc g.g_vref path)
    in
    let holders =
      New_version_cache.holders t.nvc g.g_vref path ~current:(fun peer ~at ->
          not (caught_up peer ~since:at))
    in
    let heard (rc, _) =
      (not (local rc)) && Some rc.rc_rid <> origin
      && (not (List.mem rc.rc_rid holders))
      && caught_up rc.rc_rid ~since:(t.detector.Gossip.doubted_at rc.rc_host)
    in
    if List.exists (fun (rc, _) -> local rc) reachable then (List.filter heard reachable, origin)
    else ([], origin)

(* Candidate replicas in policy order for an operation on [path].

   The first pass ([all = false]) does not even attempt to connect
   replicas whose host gossip judges suspect or dead, nor replicas
   marked unreachable this tick — under [Most_recent] that also saves
   the per-replica version poll, and [unasked] saves the polls of the
   peers this host has caught up with.  Both are advisory: gossip's verdict is
   ignored when every replica is doubtful, and the caller's retry pass
   always considers everyone, so a false suspicion or a heal within the
   tick costs one extra pass, never availability. *)
let candidates t ~all g path =
  let considered =
    if all then g.g_replicas
    else
      let live =
        match
          List.filter
            (fun rc -> t.detector.Gossip.liveness rc.rc_host = Gossip.Alive)
            g.g_replicas
        with
        | [] -> g.g_replicas
        | live ->
          Counters.add t.counters "logical.skipped_doubtful"
            (List.length g.g_replicas - List.length live);
          live
      in
      let now = Some (Clock.now t.clock) in
      let answering = List.filter (fun rc -> rc.rc_unreachable_at <> now) live in
      Counters.add t.counters "logical.skipped_unreachable"
        (List.length live - List.length answering);
      answering
  in
  let reachable =
    List.filter_map
      (fun rc ->
        match replica_root t g rc with Ok root -> Some (rc, root) | Error _ -> None)
      considered
  in
  match t.selection with
  | First_available -> reachable
  | Prefer_local ->
    let local, rest = List.partition (fun (rc, _) -> rc.rc_host = t.host) reachable in
    local @ rest
  | Most_recent ->
    (* Ask accessible replicas for their version of [path]; order by
       descending update-history size, stored copies first.  Replicas
       that cannot answer (partition arose, object unknown) go last. *)
    let poll ((rc, root) as c) =
      if rc.rc_host <> t.host then Counters.incr t.counters "logical.polls";
      match note t rc (Remote.get_version ~obs:t.obs root path) with
      | Ok vi -> ((if vi.Physical.vi_stored then stored else 0) + Vv.sum vi.Physical.vi_vv, c)
      | Error _ -> (-1, c)
    in
    let unasked, origin = unasked t g path reachable in
    let asked = List.map poll (List.filter (fun c -> not (List.memq c unasked)) reachable) in
    (* The peers left out stand behind the local copy only when it is
       stored, and when a pending entry's origin answered: a version
       it announced may have been pulled by any other peer. *)
    let answered rid ~score =
      List.exists (fun (s, (rc, _)) -> rc.rc_rid = rid && s >= score) asked
    in
    let vouched =
      List.exists (fun (s, (rc, _)) -> rc.rc_host = t.host && s >= stored) asked
      && match origin with Some rid -> answered rid ~score:0 | None -> true
    in
    let scored, left_out =
      if vouched then (asked, unasked) else (asked @ List.map poll unasked, [])
    in
    if left_out <> [] then
      Counters.add t.counters "logical.polls_skipped" (List.length left_out);
    (* Ties keep graft order, as when every replica is polled. *)
    List.filter_map (fun c -> List.find_opt (fun (_, c') -> c' == c) scored) reachable
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare b a)
    |> List.map snd
    |> fun polled -> polled @ left_out

(* Try [f] against each candidate replica until one succeeds; failing
   over on availability errors is exactly one-copy availability. *)
let with_replica t vref path f =
  Counters.incr t.counters "logical.ops";
  let* g = find_graft t vref in
  g.g_last_used <- Clock.now t.clock;
  let saw_unreachable = ref false in
  let rec attempt first enoent = function
    | [] -> Error (if enoent then Errno.ENOENT else Errno.EUNREACHABLE)
    | (rc, root) :: rest ->
      (match note t rc (f root) with
       | Ok v ->
         if not first then Counters.incr t.counters "logical.fallback";
         Ok v
       | Error (Errno.EUNREACHABLE | Errno.EAGAIN | Errno.ESTALE) ->
         (* Drop a dead connection so a later retry reconnects. *)
         saw_unreachable := true;
         rc.rc_root <- None;
         attempt false enoent rest
       | Error Errno.ENOENT ->
         (* This replica may simply be behind (unable to resolve the fid
            path yet); another may hold the object.  A genuinely missing
            object returns ENOENT once every candidate agrees. *)
         attempt false true rest
       | Error _ as e -> e)
  in
  let pass all =
    saw_unreachable := false;
    let cands = candidates t ~all g path in
    if List.length cands < List.length g.g_replicas then saw_unreachable := true;
    attempt true false cands
  in
  match pass false with
  | Error (Errno.EUNREACHABLE | Errno.ENOENT) when !saw_unreachable ->
    (* Some replica could not be consulted — the object may live exactly
       there, and transient RPC failures are per-call.  One fresh pass
       (reconnects included, liveness hints ignored) stands for the
       client's timeout-and-retry; a genuine miss (every replica
       answered) never re-polls. *)
    Counters.incr t.counters "logical.retry_pass";
    pass true
  | r -> r

(* ------------------------------------------------------------------ *)
(* Concurrency control (paper §2.5: "the logical layer performs
   concurrency control on logical files")                              *)

let lock_key vref (fid : Ids.file_id) =
  (vref.Ids.alloc, vref.Ids.vol, fid.Ids.issuer, fid.Ids.uniq)

let lock_acquire t vref fid flag =
  let key = lock_key vref fid in
  let lock =
    match Hashtbl.find_opt t.locks key with
    | Some l -> l
    | None ->
      let l = { readers = 0; writer = false } in
      Hashtbl.replace t.locks key l;
      l
  in
  match flag with
  | Vnode.Read_only ->
    if lock.writer then begin
      Counters.incr t.counters "logical.lock_denied";
      Error Errno.EAGAIN
    end
    else begin
      lock.readers <- lock.readers + 1;
      Ok ()
    end
  | Vnode.Write_only | Vnode.Read_write ->
    if lock.writer || lock.readers > 0 then begin
      Counters.incr t.counters "logical.lock_denied";
      Error Errno.EAGAIN
    end
    else begin
      lock.writer <- true;
      Ok ()
    end

let lock_release t vref fid flag =
  let key = lock_key vref fid in
  match Hashtbl.find_opt t.locks key with
  | None -> ()
  | Some lock ->
    (match flag with
     | Vnode.Read_only -> lock.readers <- max 0 (lock.readers - 1)
     | Vnode.Write_only | Vnode.Read_write -> lock.writer <- false);
    if lock.readers = 0 && not lock.writer then Hashtbl.remove t.locks key

let open_locks t = Hashtbl.length t.locks

(* ------------------------------------------------------------------ *)
(* The logical vnode                                                   *)

type lnode = {
  ln_vref : Ids.volume_ref;
  ln_path : Physical.fidpath;
  ln_kind : Aux_attrs.fkind;
  mutable ln_open : Vnode.open_flag option;
}

type Vnode.vdata += Log_vnode of t * lnode

let self_fid ln =
  match List.rev ln.ln_path with [] -> Ids.root_fid | fid :: _ -> fid

let parent_path ln =
  match List.rev ln.ln_path with [] -> [] | _ :: rev -> List.rev rev

let rec make t ln : Vnode.t =
  let walk_self root = Remote.walk root ln.ln_path in
  {
    (Vnode.not_supported (Log_vnode (t, ln))) with
    getattr =
      (fun () ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* v = walk_self root in
            v.Vnode.getattr ()));
    setattr =
      (fun sa ->
        traced t "update:setattr" @@ fun () ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* v = walk_self root in
            v.Vnode.setattr sa));
    lookup = (fun name -> logical_lookup t ln name);
    create =
      (fun name ->
        let* fid =
          traced t "update:create" @@ fun () ->
          with_replica t ln.ln_vref ln.ln_path (fun root ->
              let* dir = walk_self root in
              let* _new_vnode = dir.Vnode.create name in
              let* fid, _kind = Remote.resolve ~obs:t.obs dir name in
              Ok fid)
        in
        Ok
          (make t
             {
               ln_vref = ln.ln_vref;
               ln_path = ln.ln_path @ [ fid ];
               ln_kind = Aux_attrs.Freg;
               ln_open = None;
             }));
    mkdir =
      (fun name ->
        let* fid =
          traced t "update:mkdir" @@ fun () ->
          with_replica t ln.ln_vref ln.ln_path (fun root ->
              let* dir = walk_self root in
              let* _new_vnode = dir.Vnode.mkdir name in
              let* fid, _kind = Remote.resolve ~obs:t.obs dir name in
              Ok fid)
        in
        Ok
          (make t
             {
               ln_vref = ln.ln_vref;
               ln_path = ln.ln_path @ [ fid ];
               ln_kind = Aux_attrs.Fdir;
               ln_open = None;
             }));
    remove =
      (fun name ->
        traced t "update:remove" @@ fun () ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* dir = walk_self root in
            dir.Vnode.remove name));
    rmdir =
      (fun name ->
        traced t "update:rmdir" @@ fun () ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* dir = walk_self root in
            dir.Vnode.rmdir name));
    rename =
      (fun sname dst dname ->
        match dst.Vnode.data with
        | Log_vnode (t', dst_ln)
          when t' == t && Ids.vref_equal dst_ln.ln_vref ln.ln_vref ->
          traced t "update:rename" @@ fun () ->
          with_replica t ln.ln_vref ln.ln_path (fun root ->
              let* src_dir = walk_self root in
              let* dst_dir = Remote.walk root dst_ln.ln_path in
              src_dir.Vnode.rename sname dst_dir dname)
        | _ -> Error Errno.EXDEV);
    link =
      (fun target name ->
        match target.Vnode.data with
        | Log_vnode (t', target_ln)
          when t' == t && Ids.vref_equal target_ln.ln_vref ln.ln_vref ->
          traced t "update:link" @@ fun () ->
          with_replica t ln.ln_vref ln.ln_path (fun root ->
              let* dir = walk_self root in
              let* target_v = Remote.walk root target_ln.ln_path in
              dir.Vnode.link target_v name)
        | _ -> Error Errno.EXDEV);
    readdir =
      (fun () ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* dir = walk_self root in
            dir.Vnode.readdir ()));
    read =
      (fun ~off ~len ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* v = walk_self root in
            v.Vnode.read ~off ~len));
    write =
      (fun ~off data ->
        traced t "update:write" @@ fun () ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* v = walk_self root in
            v.Vnode.write ~off data));
    openv =
      (fun flag ->
        let* () = lock_acquire t ln.ln_vref (self_fid ln) flag in
        ln.ln_open <- Some flag;
        (* Deliver the open to the physical layer through the encoded
           lookup channel; a plain [openv] would be discarded by an
           interposed NFS (paper §2.2/§2.3). *)
        let result =
          with_replica t ln.ln_vref ln.ln_path (fun root ->
              let* parent = Remote.walk root (parent_path ln) in
              let fid = match ln.ln_path with [] -> None | _ -> Some (self_fid ln) in
              Remote.send_open ~obs:t.obs parent fid flag)
        in
        (match result with
         | Ok () -> ()
         | Error _ -> () (* the open itself still succeeds: hint only *));
        Ok ());
    closev =
      (fun () ->
        match ln.ln_open with
        | None -> Error Errno.EINVAL
        | Some flag ->
          lock_release t ln.ln_vref (self_fid ln) flag;
          ln.ln_open <- None;
          let result =
            with_replica t ln.ln_vref ln.ln_path (fun root ->
                let* parent = Remote.walk root (parent_path ln) in
                let fid = match ln.ln_path with [] -> None | _ -> Some (self_fid ln) in
                Remote.send_close ~obs:t.obs parent fid)
          in
          (match result with Ok () -> () | Error _ -> ());
          Ok ());
    fsync =
      (fun () ->
        with_replica t ln.ln_vref ln.ln_path (fun root ->
            let* v = walk_self root in
            v.Vnode.fsync ()));
    inactive = (fun () -> Ok ());
  }

and logical_lookup t ln name =
  if Ctl_name.is_ctl name then
    (* Control names are not directory entries: pass them through to the
       physical layer (possibly across an interposed NFS), which decodes
       the operation and answers with a synthetic vnode. *)
    with_replica t ln.ln_vref ln.ln_path (fun root ->
        let* dir = Remote.walk root ln.ln_path in
        dir.Vnode.lookup name)
  else
  let* fid, kind =
    with_replica t ln.ln_vref ln.ln_path (fun root ->
        let* dir = Remote.walk root ln.ln_path in
        Remote.resolve ~obs:t.obs dir name)
  in
  let child_path = ln.ln_path @ [ fid ] in
  match kind with
  | Aux_attrs.Freg | Aux_attrs.Fdir ->
    Ok (make t { ln_vref = ln.ln_vref; ln_path = child_path; ln_kind = kind; ln_open = None })
  | Aux_attrs.Fgraft ->
    (* Autograft (paper §4.4): read the graft point's entries, locate the
       target volume's replicas, graft, and transparently continue at
       the grafted volume's root. *)
    let* target, replicas =
      with_replica t ln.ln_vref child_path (fun root ->
          let* fdir, _wire = Remote.fetch_dir ~obs:t.obs root child_path in
          match Physical.graft_entries_of_fdir fdir with
          | Some info -> Ok info
          | None -> Error Errno.EIO)
    in
    autograft_volume t target ~replicas;
    Ok (make t { ln_vref = target; ln_path = []; ln_kind = Aux_attrs.Fdir; ln_open = None })

let root t vref =
  let* _g = find_graft t vref in
  Ok (make t { ln_vref = vref; ln_path = []; ln_kind = Aux_attrs.Fdir; ln_open = None })
