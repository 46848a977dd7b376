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
    single RPC.  Peers that predate summaries answer the batched op with
    [EINVAL] and are served by the original full walk
    ({!reconcile_subtree}). *)

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
          remote one *)
}

val empty_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit

val reconcile_dir :
  local:Physical.t -> remote_root:Vnode.t -> remote_rid:Ids.replica_id ->
  Physical.fidpath -> (stats, Errno.t) result
(** Reconcile a single directory (no recursion). *)

val reconcile_subtree :
  local:Physical.t -> remote_root:Vnode.t -> remote_rid:Ids.replica_id ->
  Physical.fidpath -> (stats, Errno.t) result
(** The original full walk: reconcile the subtree rooted at [fidpath]
    (the whole volume when [[]]), depth-first, one [getvv] RPC per file.
    Individual file or subdirectory failures are counted in [errors] and
    skipped; the error return is reserved for the root being
    unreachable.  Kept as the fallback for pre-summary peers and as the
    baseline the [reconscale] experiment measures against. *)

val reconcile_volume :
  local:Physical.t -> remote_root:Vnode.t -> remote_rid:Ids.replica_id ->
  unit -> (stats, Errno.t) result
(** Incremental reconciliation from the volume root: batched version
    fetches, summary-vector pruning, full-walk fallback when the peer
    answers [EINVAL].  Also feeds the [recon.rpcs] and
    [recon.pruned_subtrees] counters of the local replica's metrics
    registry.

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
