let log_src = Logs.Src.create "ficus.reconcile" ~doc:"Ficus reconciliation protocol"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Tag every message with the host so a reporter can
   attribute interleaved multi-host logs. *)
let log_tags host = Logs.Tag.add Obs.host_tag host Logs.Tag.empty


type stats = {
  dirs_merged : int;
  files_pulled : int;
  files_conflicted : int;
  entries_materialized : int;
  entries_unmaterialized : int;
  tombstones_expired : int;
  name_collisions : int;
  errors : int;
  rpcs : int;
  subtrees_pruned : int;
}

let empty_stats =
  {
    dirs_merged = 0;
    files_pulled = 0;
    files_conflicted = 0;
    entries_materialized = 0;
    entries_unmaterialized = 0;
    tombstones_expired = 0;
    name_collisions = 0;
    errors = 0;
    rpcs = 0;
    subtrees_pruned = 0;
  }

let add_stats a b =
  {
    dirs_merged = a.dirs_merged + b.dirs_merged;
    files_pulled = a.files_pulled + b.files_pulled;
    files_conflicted = a.files_conflicted + b.files_conflicted;
    entries_materialized = a.entries_materialized + b.entries_materialized;
    entries_unmaterialized = a.entries_unmaterialized + b.entries_unmaterialized;
    tombstones_expired = a.tombstones_expired + b.tombstones_expired;
    name_collisions = a.name_collisions + b.name_collisions;
    errors = a.errors + b.errors;
    rpcs = a.rpcs + b.rpcs;
    subtrees_pruned = a.subtrees_pruned + b.subtrees_pruned;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "dirs=%d pulls=%d conflicts=%d +mat=%d -mat=%d gc=%d collisions=%d errors=%d \
     rpcs=%d pruned=%d"
    s.dirs_merged s.files_pulled s.files_conflicted s.entries_materialized
    s.entries_unmaterialized s.tombstones_expired s.name_collisions s.errors s.rpcs
    s.subtrees_pruned

let ( let* ) = Result.bind

let merge_stats_of_result (result : Fdir.merge_result) =
  let count f = List.length (List.filter f result.Fdir.actions) in
  {
    empty_stats with
    dirs_merged = 1;
    entries_materialized =
      count (function Fdir.Materialize _ -> true | Fdir.Unmaterialize _ | Fdir.Expire _ -> false);
    entries_unmaterialized =
      count (function Fdir.Unmaterialize _ -> true | Fdir.Materialize _ | Fdir.Expire _ -> false);
    tombstones_expired =
      count (function Fdir.Expire _ -> true | Fdir.Materialize _ | Fdir.Unmaterialize _ -> false);
    name_collisions = List.length result.Fdir.new_collisions;
  }

(* A regular file the peer describes by [remote_vi], through the shared
   pull step, billed to reconciliation. *)
let pull_known_file ~local ~remote_root ~remote_rid path remote_vi =
  if not remote_vi.Physical.vi_stored then Ok empty_stats
  else
    let* pull =
      Delta.pull_file ~via:"recon" ~local ~connect:(fun () -> Ok remote_root)
        ~origin_rid:remote_rid ~remote_vv:remote_vi.Physical.vi_vv path
    in
    match pull with
    | Delta.Current -> Ok empty_stats
    | Delta.Fetched (dstats, installed) ->
      let counters = Physical.counters local in
      Counters.add counters "recon.bytes" dstats.Delta.wire_bytes;
      Counters.add counters "recon.bytes_saved" dstats.Delta.saved_bytes;
      let* installed = installed in
      (match installed with
       | Some Physical.Installed ->
         Log.debug (fun m ->
             m ~tags:(log_tags (Physical.host local))
               "%s pulled %s during reconciliation with r%d" (Physical.host local)
               (Ids.fidpath_to_string path) remote_rid);
         Physical.reconciled local path ~kind:Aux_attrs.Freg ~vv:remote_vi.Physical.vi_vv;
         Ok { empty_stats with files_pulled = 1; rpcs = 1 }
       | Some (Physical.Conflict _) -> Ok { empty_stats with files_conflicted = 1; rpcs = 1 }
       | None | Some Physical.Up_to_date -> Ok { empty_stats with rpcs = 1 })

(* Pull one regular file if the remote history is ahead of ours; report a
   conflict if the histories are concurrent. *)
let reconcile_file ~local ~remote_root ~remote_rid path =
  match Remote.get_version ~obs:(Physical.obs local) remote_root path with
  | Error Errno.ENOENT ->
    (* The remote directory no longer lists it — a later merge pass will
       carry the tombstone; nothing to do now. *)
    Ok { empty_stats with rpcs = 1 }
  | Error _ as e -> e
  | Ok remote_vi ->
    let* s = pull_known_file ~local ~remote_root ~remote_rid path remote_vi in
    Ok (add_stats s { empty_stats with rpcs = 1 })

let reconcile_subtree ~local ~remote_root ~remote_rid path =
  let rec go rev_path =
    let path = List.rev rev_path in
    let* merged, _wire = Delta.pull_dir ~local ~remote_root ~remote_rid path in
    let stats = { (merge_stats_of_result merged) with rpcs = 1 } in
    (* Walk the merged local view: every child now has an entry locally.
       A file can be reached twice through multiple names; visit each fid
       once. *)
    let* fdir = Physical.fetch_dir local path in
    let visit acc entry =
      let child_rev = entry.Fdir.fid :: rev_path in
      let result =
        match entry.Fdir.kind with
        | Aux_attrs.Freg ->
          reconcile_file ~local ~remote_root ~remote_rid (List.rev child_rev)
        | Aux_attrs.Fdir | Aux_attrs.Fgraft -> go child_rev
      in
      match result with
      | Ok s -> add_stats acc s
      | Error _ -> add_stats acc { empty_stats with errors = 1 }
    in
    Ok (List.fold_left visit stats (Fdir.live_fids fdir))
  in
  go (List.rev path)

(* The local summary of the directory at [path]. *)
let own_summary local path =
  match Physical.get_version local path with Ok vi -> vi.Physical.vi_summary | Error _ -> None

let fetch_dir_versions ~local ~remote_root path ~floor =
  let* dv, wire = Remote.fetch_dir_versions ~obs:(Physical.obs local) remote_root path ~floor in
  Counters.add (Physical.counters local) "recon.dirvvs_bytes" wire;
  Ok dv

(* The fids this merge made live that no entry named before it.  A
   rename materializes a new birth of a fid that was live already: one
   of its births just died, or another one stays live. *)
let fresh_fids (result : Fdir.merge_result) =
  let fresh = Hashtbl.create 8 and births = Hashtbl.create 8 in
  List.iter
    (function
      | Fdir.Materialize e ->
        Hashtbl.replace fresh e.Fdir.fid ();
        Hashtbl.replace births e.Fdir.birth ()
      | Fdir.Unmaterialize _ | Fdir.Expire _ -> ())
    result.Fdir.actions;
  if Hashtbl.length fresh > 0 then begin
    List.iter
      (function
        | Fdir.Unmaterialize e -> Hashtbl.remove fresh e.Fdir.fid
        | Fdir.Materialize _ | Fdir.Expire _ -> ())
      result.Fdir.actions;
    List.iter
      (fun e ->
        if e.Fdir.status = Fdir.Live && not (Hashtbl.mem births e.Fdir.birth) then
          Hashtbl.remove fresh e.Fdir.fid)
      (Fdir.entries result.Fdir.merged)
  end;
  fresh

(* ------------------------------------------------------------------ *)
(* Incremental walk: one batched getdirvvs per directory instead of a
   getvv per file, whole-subtree pruning when the local summary vector
   dominates the remote one, and, once a floor goes with the request,
   version blocks only for the children changed above it.  Returns the
   completeness flag that gates summary joins: a peer's claims may only
   be adopted after every child was merged, pulled, pruned, covered by
   the floor or conflict-logged without error. *)

let rec reconcile_subtree_incr ~local ~remote_root ~remote_rid rev_path dv =
  let path = List.rev rev_path in
  let* merge_result = Physical.merge_dir local path ~remote_rid dv.Ctl_wire.dv_fdir in
  let stats = ref (merge_stats_of_result merge_result) in
  if !stats.entries_materialized + !stats.entries_unmaterialized > 0 then
    Physical.reconciled local path ~kind:Aux_attrs.Fdir ~vv:(Fdir.vv merge_result.Fdir.merged);
  let complete = ref true in
  let count s = stats := add_stats !stats s in
  let* fdir = Physical.fetch_dir local path in
  (* The peer's child versions by fid, first listing winning. *)
  let remote_children = Hashtbl.create (List.length dv.Ctl_wire.dv_children) in
  List.iter
    (fun (f, vi) ->
      if not (Hashtbl.mem remote_children f) then Hashtbl.replace remote_children f vi)
    dv.Ctl_wire.dv_children;
  let failed ?(rpcs = 0) () =
    complete := false;
    count { empty_stats with errors = 1; rpcs }
  in
  let descend child_rev ~floor =
    match fetch_dir_versions ~local ~remote_root (List.rev child_rev) ~floor with
    | Error Errno.ENOENT ->
      (* Raced with a remote removal; the tombstone arrives later. *)
      count { empty_stats with rpcs = 1 }
    | Error _ -> failed ~rpcs:1 ()
    | Ok child_dv ->
      (match reconcile_subtree_incr ~local ~remote_root ~remote_rid child_rev child_dv with
       | Ok (s, child_complete) ->
         count (add_stats s { empty_stats with rpcs = 1 });
         if not child_complete then complete := false
       | Error _ -> failed ~rpcs:1 ())
  in
  (* A child live in the peer's directory but without a version block
     takes the per-child path, so the walk never claims coverage of what
     it did not see — unless the reply was filtered and the child is
     covered by the floor.  A filtered reply lists the children whose
     info failed; and a child this merge just made live here cannot be
     covered, so a reply that leaves one out is counted. *)
  let covered =
    match dv.Ctl_wire.dv_filtered with
    | None -> fun _ -> false
    | Some failed ->
      let fresh = fresh_fids merge_result in
      fun fid ->
        if List.exists (Ids.fid_equal fid) failed then false
        else if Hashtbl.mem fresh fid then begin
          Counters.incr (Physical.counters local) "recon.unstamped_child";
          false
        end
        else true
  in
  let remote_live fid = Fdir.find_by_fid dv.Ctl_wire.dv_fdir fid <> None in
  List.iter
    (fun e ->
      let fid = e.Fdir.fid in
      let child_rev = fid :: rev_path in
      match e.Fdir.kind, Hashtbl.find_opt remote_children fid with
      | Aux_attrs.Freg, Some rvi ->
        (match pull_known_file ~local ~remote_root ~remote_rid (List.rev child_rev) rvi with
         | Ok s -> count s
         | Error _ -> failed ())
      | Aux_attrs.Freg, None when remote_live fid ->
        if not (covered fid) then (
          match reconcile_file ~local ~remote_root ~remote_rid (List.rev child_rev) with
          | Ok s -> count s
          | Error _ -> failed ())
      | (Aux_attrs.Fdir | Aux_attrs.Fgraft), Some rvi ->
        let own = own_summary local (List.rev child_rev) in
        if Summary.prunes ~own ~served:rvi.Physical.vi_summary then
          count { empty_stats with subtrees_pruned = 1 }
        else descend child_rev ~floor:(Physical.recon_floor local ~peer:remote_rid own)
      | (Aux_attrs.Fdir | Aux_attrs.Fgraft), None when remote_live fid ->
        if covered fid then count { empty_stats with subtrees_pruned = 1 }
        else descend child_rev ~floor:None
      | _, None ->
        (* Not live remotely: a tombstone already merged, or a local-only
           subtree — the peer stores nothing to incorporate. *)
        ())
    (Fdir.live_fids fdir);
  (if !complete then
     match dv.Ctl_wire.dv_summary with
     | Some rs ->
       (match Physical.join_summary local path rs with
        | Ok () -> ()
        | Error _ -> complete := false)
     | None -> ());
  Ok (!stats, !complete)

let count_pass local s =
  let counters = Physical.counters local in
  Counters.add counters "recon.rpcs" s.rpcs;
  Counters.add counters "recon.pruned_subtrees" s.subtrees_pruned

let reconcile_volume ~local ~remote_root ~remote_rid () =
  let result =
    let own = own_summary local [] in
    let floor = Physical.recon_floor local ~peer:remote_rid own in
    let* dv = fetch_dir_versions ~local ~remote_root [] ~floor in
    (* Root fast path: when our root summary dominates the peer's, the
       whole volume is already incorporated — a quiescent pass costs one
       RPC. *)
    if Summary.prunes ~own ~served:dv.Ctl_wire.dv_summary then begin
      Physical.recon_passed local ~peer:remote_rid ~walked:false;
      Ok { empty_stats with rpcs = 1; subtrees_pruned = 1 }
    end
    else
      let* s, complete = reconcile_subtree_incr ~local ~remote_root ~remote_rid [] dv in
      (* From the next pass on, floors go with the requests: this one
         read every child it was sent, conflicts included. *)
      if complete then Physical.recon_passed local ~peer:remote_rid ~walked:true;
      Ok (add_stats s { empty_stats with rpcs = 1 })
  in
  (match result with
  | Ok s ->
    count_pass local s;
    if s.dirs_merged + s.files_pulled + s.files_conflicted > 0 then
      Log.info (fun m ->
          m ~tags:(log_tags (Physical.host local)) "%s reconciled with r%d: %a" (Physical.host local) remote_rid pp_stats s)
  | Error _ -> ());
  match result with
  | Error _ -> result
  | Ok s when Physical.dir_merge_mode local <> `Crdt -> Ok s
  | Ok s ->
    (* CRDT mode: the walk converged every *directory*; now converge the
       *tree* (re-parent orphans, cut cycles) and apply the replica's
       file-conflict resolver.  Quiescent passes (nothing merged, pulled
       or conflicted) are already at the fixpoint — skip the storage
       walk so a quiet volume stays one RPC per pass. *)
    let active =
      s.dirs_merged + s.files_pulled + s.files_conflicted + s.entries_materialized
      + s.entries_unmaterialized
      > 0
    in
    if not active then Ok s
    else begin
      let resolved = Crdt_merge.resolve_pending local in
      match Crdt_merge.repair local with
      | Error _ -> Ok { s with errors = s.errors + 1 }
      | Ok r ->
        if r.Crdt_merge.rs_demoted + r.Crdt_merge.rs_attached + resolved > 0 then
          Log.info (fun m ->
              m
                ~tags:(log_tags (Physical.host local))
                "%s crdt repair: %d demoted, %d attached, %d cycles broken, %d conflicts resolved"
                (Physical.host local) r.Crdt_merge.rs_demoted r.Crdt_merge.rs_attached
                r.Crdt_merge.rs_cycles_broken resolved);
        Ok s
    end

let resolve_file_conflict ~local (entry : Conflict_log.entry) ~keep =
  match entry.Conflict_log.detail with
  | Conflict_log.Name_collision _ | Conflict_log.Removed_while_updated _ ->
    Error Errno.EINVAL
  | Conflict_log.File_update { local_vv; remote_vv; remote_data; _ } ->
    let path = entry.Conflict_log.fidpath in
    let* data =
      match keep with
      | `Remote -> Ok remote_data
      | `Merged data -> Ok data
      | `Local ->
        let* _vi, data = Physical.fetch_file local path in
        Ok data
    in
    (* The resolution is a fresh update dominating both histories. *)
    let vv =
      Version_vector.bump (Version_vector.merge local_vv remote_vv) (Physical.rid local)
    in
    let* () = Physical.force_install local path ~vv ~uid:entry.Conflict_log.owner_uid ~data in
    Conflict_log.mark_resolved (Physical.conflicts local) entry.Conflict_log.id;
    Ok ()
