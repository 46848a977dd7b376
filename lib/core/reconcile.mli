(** The Ficus file-system reconciliation protocol (paper §3.3).

    "This protocol is executed periodically to traverse an entire
    subgraph (not just a single node), and reconcile the local replica
    against a remote replica."  It is the correctness backstop: update
    notification and propagation are mere optimizations and may all be
    lost; pairwise reconciliation alone must drive all replicas of a
    volume to convergence.

    The walk is one-way pull (local adopts remote state, never the
    reverse); running it in both directions — or around any gossip
    topology that connects all replicas — converges everyone.  Per
    directory it calls {!Physical.merge_dir}; per regular file it
    compares version vectors and either adopts the dominating remote
    version (shadow commit) or reports a conflict.

    {!reconcile_volume} runs the walk {e incrementally}: one batched
    [getdirvvs] RPC per directory (instead of a [getvv] per file), and
    whole subtrees are skipped when the local subtree summary vector
    dominates the remote one — a quiescent pass over any volume costs a
    single RPC.  Each request carries the puller's floor
    ({!Summary.floor}), so the peer answers only for the children
    changed above it and an active pass costs what changed.

    Per regular file, both walks take the pull step they share with the
    propagation daemon ({!Delta.pull_file}). *)

type stats = {
  dirs_merged : int;
  files_pulled : int;
  files_conflicted : int;
  entries_materialized : int;
  entries_unmaterialized : int;
  tombstones_expired : int;
  name_collisions : int;
  errors : int;         (** subtrees skipped because the remote failed *)
  rpcs : int;
      (** remote protocol round trips issued on successfully handled
          paths (getdirvvs/getdir/getvv/readfile) — the cost metric the
          incremental walk minimizes *)
  subtrees_pruned : int;
      (** subtrees skipped because the local summary dominated the
          remote one, or because the floor the request carried covered
          them *)
}

val empty_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit

val reconcile_subtree :
  local:Physical.t -> remote_root:Vnode.t -> remote_rid:Ids.replica_id ->
  Physical.fidpath -> (stats, Errno.t) result
(** The original full walk: reconcile the subtree rooted at [fidpath]
    (the whole volume when [[]]), depth-first, one [getvv] RPC per file.
    Individual file or subdirectory failures are counted in [errors] and
    skipped; the error return is reserved for the root being
    unreachable.  {!reconcile_volume} never takes it: it is kept only as
    the baseline the [reconscale] experiment measures against and as the
    oracle the incremental walk is property-tested against. *)

val reconcile_volume :
  local:Physical.t -> remote_root:Vnode.t -> remote_rid:Ids.replica_id ->
  unit -> (stats, Errno.t) result
(** Incremental reconciliation from the volume root: batched version
    fetches, summary-vector pruning and floors.  Also feeds the
    [recon.rpcs], [recon.pruned_subtrees], [recon.dirvvs_bytes] and
    [recon.unstamped_child] counters of the local replica
    ({!Physical.counters}).  A pass that walks the volume without error
    enables floors against [remote_rid] from the next pass on.  That
    pass, and one that prunes at the root, is recorded as completed
    ({!Physical.recon_passed}): the logical layer stops polling
    [remote_rid] until the peer is next doubted.  Every file a pass
    installs, and every directory whose entries it merges in or out, is
    announced through the replica's reconciliation notifier
    ({!Physical.reconciled}).

    The local replica's merge policy ({!Physical.set_merge_policy})
    selects the directory-merge discipline.  Under [`Crdt], every
    {e active} pass is followed by a {!Crdt_merge.repair} (re-parent
    orphaned subtrees into [lost+found], cut rename cycles
    deterministically) and by {!Crdt_merge.resolve_pending} with the
    replica's resolver. *)

val resolve_file_conflict :
  local:Physical.t -> Conflict_log.entry -> keep:[ `Local | `Remote | `Merged of string ] ->
  (unit, Errno.t) result
(** Owner-driven resolution of a reported file conflict: install the
    chosen contents under a version vector dominating both histories,
    clear the conflict flag, mark the log entry resolved, and notify so
    the resolution propagates like any other update. *)
