let log_src = Logs.Src.create "ficus.reconcile" ~doc:"Ficus reconciliation protocol"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Tag every message with the host so the shared {!Obs.reporter} can
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

let reconcile_dir ~local ~remote_root ~remote_rid path =
  let* remote_fdir = Remote.fetch_dir ~obs:(Physical.obs local) remote_root path in
  let* result = Physical.merge_dir local path ~remote_rid remote_fdir in
  Ok { (merge_stats_of_result result) with rpcs = 1 }

(* The decide-and-pull half of per-file reconciliation, shared by the
   per-file protocol and the batched walk (which already holds the remote
   version info). *)
let pull_file ~local ~remote_root ~remote_rid path remote_vi =
  let* local_vi = Physical.get_version local path in
  if not remote_vi.Physical.vi_stored then Ok empty_stats
  else
    let local_vv = local_vi.Physical.vi_vv in
    let remote_vv = remote_vi.Physical.vi_vv in
    let needs_pull =
      (not local_vi.Physical.vi_stored)
      || (match Version_vector.compare_vv remote_vv local_vv with
          | Version_vector.Dominates | Version_vector.Concurrent -> true
          | Version_vector.Equal | Version_vector.Dominated -> false)
    in
    if not needs_pull then Ok empty_stats
    else
      (* Same delta negotiation as the propagation daemon: a replica
         that already stores most of the file's chunks ships only the
         missing ones. *)
      let* fetched, dstats = Delta.fetch_file ~local ~remote_root path in
      let obs = Physical.obs local in
      Metrics.add obs.Obs.metrics "recon.bytes" dstats.Delta.wire_bytes;
      if dstats.Delta.saved_bytes > 0 then
        Metrics.add obs.Obs.metrics "recon.bytes_saved" dstats.Delta.saved_bytes;
      match fetched with
      | Delta.Up_to_date _ ->
        (* The chunk-map header showed we raced ahead of [remote_vi]. *)
        Ok { empty_stats with rpcs = 1 }
      | Delta.Data (vi, data) ->
      let span = vi.Physical.vi_span in
      Span.event obs.Obs.spans span
        ~host:(Physical.host local)
        ~tick:(Clock.now (Physical.clock local))
        "recon:pull";
      let* outcome =
        Physical.install_file ~span ~via:"recon" local path ~vv:vi.Physical.vi_vv
          ~uid:vi.Physical.vi_uid ~data ~origin_rid:remote_rid
      in
      (match outcome with
       | Physical.Installed ->
         Log.debug (fun m ->
             m ~tags:(log_tags (Physical.host local)) "%s pulled %s during reconciliation with r%d" (Physical.host local)
               (Ids.fidpath_to_string path) remote_rid);
         Ok { empty_stats with files_pulled = 1; rpcs = 1 }
       | Physical.Up_to_date -> Ok { empty_stats with rpcs = 1 }
       | Physical.Conflict _ -> Ok { empty_stats with files_conflicted = 1; rpcs = 1 })

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
    let* s = pull_file ~local ~remote_root ~remote_rid path remote_vi in
    Ok (add_stats s { empty_stats with rpcs = 1 })

let reconcile_subtree ~local ~remote_root ~remote_rid path =
  let rec go rev_path =
    let path = List.rev rev_path in
    let* stats = reconcile_dir ~local ~remote_root ~remote_rid path in
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

(* ------------------------------------------------------------------ *)
(* Incremental walk: one batched getdirvvs per directory instead of a
   getvv per file, and whole-subtree pruning when the local summary
   vector dominates the remote one.  Returns the completeness flag that
   gates summary joins: a peer's claims may only be adopted after every
   child was merged, pulled, pruned or conflict-logged without error. *)

let rec reconcile_subtree_incr ~local ~remote_root ~remote_rid rev_path dv =
  let path = List.rev rev_path in
  let* merge_result = Physical.merge_dir local path ~remote_rid dv.Remote.dv_fdir in
  let stats = ref (merge_stats_of_result merge_result) in
  let complete = ref true in
  let count s = stats := add_stats !stats s in
  let* fdir = Physical.fetch_dir local path in
  (* The peer's child versions by fid, first listing winning. *)
  let remote_children = Hashtbl.create (List.length dv.Remote.dv_children) in
  List.iter
    (fun (f, vi) ->
      if not (Hashtbl.mem remote_children f) then Hashtbl.replace remote_children f vi)
    dv.Remote.dv_children;
  List.iter
    (fun e ->
      let fid = e.Fdir.fid in
      let remote_vi = Hashtbl.find_opt remote_children fid in
      match e.Fdir.kind, remote_vi with
      | Aux_attrs.Freg, None ->
        (* Not live remotely (tombstone already merged) — nothing to pull. *)
        ()
      | Aux_attrs.Freg, Some rvi ->
        (match
           pull_file ~local ~remote_root ~remote_rid (List.rev (fid :: rev_path)) rvi
         with
         | Ok s -> count s
         | Error _ ->
           complete := false;
           count { empty_stats with errors = 1 })
      | (Aux_attrs.Fdir | Aux_attrs.Fgraft), None ->
        (* Local-only subtree: the peer stores nothing to incorporate. *)
        ()
      | (Aux_attrs.Fdir | Aux_attrs.Fgraft), Some rvi ->
        let child_rev = fid :: rev_path in
        let child_path = List.rev child_rev in
        let local_summary =
          match Physical.get_version local child_path with
          | Ok vi -> vi.Physical.vi_summary
          | Error _ -> None
        in
        let prune =
          match local_summary, rvi.Physical.vi_summary with
          | Some ls, Some rs -> Version_vector.dominates ls rs
          | _, _ -> false
        in
        if prune then count { empty_stats with subtrees_pruned = 1 }
        else (
          match
            Remote.fetch_dir_versions ~obs:(Physical.obs local) remote_root child_path
          with
          | Error Errno.ENOENT ->
            (* Raced with a remote removal; the tombstone arrives later. *)
            count { empty_stats with rpcs = 1 }
          | Error _ ->
            complete := false;
            count { empty_stats with errors = 1; rpcs = 1 }
          | Ok child_dv ->
            (match
               reconcile_subtree_incr ~local ~remote_root ~remote_rid child_rev child_dv
             with
             | Ok (s, child_complete) ->
               count (add_stats s { empty_stats with rpcs = 1 });
               if not child_complete then complete := false
             | Error _ ->
               complete := false;
               count { empty_stats with errors = 1; rpcs = 1 })))
    (Fdir.live_fids fdir);
  (if !complete then
     match dv.Remote.dv_summary with
     | Some rs ->
       (match Physical.join_summary local path rs with
        | Ok () -> ()
        | Error _ -> complete := false)
     | None -> ());
  Ok (!stats, !complete)

let note_metrics local s =
  let m = (Physical.obs local).Obs.metrics in
  if s.rpcs > 0 then Metrics.add m "recon.rpcs" s.rpcs;
  if s.subtrees_pruned > 0 then Metrics.add m "recon.pruned_subtrees" s.subtrees_pruned

let reconcile_volume ~local ~remote_root ~remote_rid () =
  let result =
    match Remote.fetch_dir_versions ~obs:(Physical.obs local) remote_root [] with
    | Error Errno.EINVAL ->
      (* The peer predates the batched op: full per-file walk. *)
      reconcile_subtree ~local ~remote_root ~remote_rid []
    | Error e -> Error e
    | Ok dv ->
      (* Root fast path: when our root summary dominates the peer's, the
         whole volume is already incorporated — a quiescent pass costs
         one RPC. *)
      let local_summary =
        match Physical.get_version local [] with
        | Ok vi -> vi.Physical.vi_summary
        | Error _ -> None
      in
      let prune =
        match local_summary, dv.Remote.dv_summary with
        | Some ls, Some rs -> Version_vector.dominates ls rs
        | _, _ -> false
      in
      if prune then Ok { empty_stats with rpcs = 1; subtrees_pruned = 1 }
      else (
        match reconcile_subtree_incr ~local ~remote_root ~remote_rid [] dv with
        | Ok (s, _complete) -> Ok (add_stats s { empty_stats with rpcs = 1 })
        | Error e -> Error e)
  in
  (match result with
  | Ok s ->
    note_metrics local s;
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
