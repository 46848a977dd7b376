(** The CRDT directory-merge subsystem: tree repair over the optimistic
    OR-set directory merge, plus pluggable file-conflict resolvers.

    Per-directory reconciliation ({!Physical.merge_dir}) converges each
    directory's entry set but leaves the {e tree} unconstrained:
    concurrent cross-renames can tombstone every path to a subtree
    (orphans) or make the surviving parent links cyclic.  In [`Crdt]
    mode ({!Physical.set_merge_policy}) tombstoned directories keep their
    storage in place, and {!repair} — run by
    {!Reconcile.reconcile_volume} after every active pass — walks that
    storage, feeds the live parent links to the pure decision kernel
    ({!Crdt_tree.resolve}), and applies its verdicts as ordinary
    joinable directory operations: losing links are tombstoned, parent-
    less directories are re-attached under the replicated [lost+found]
    with a name and birth derived from their fid alone.  Replicas that
    repair independently therefore produce entries that {e join} under
    the OR-set merge instead of fighting, and every replica converges
    to the same repaired tree.

    File conflicts get the same treatment through {!Mv_register}: each
    pending conflict is a multi-value register (the maximal antichain
    of concurrent versions), and {!resolve_pending} applies the
    replica's {!Resolver} — last-writer-wins, an app-level merge
    callback, or the paper's owner-report behavior (leave it in the
    {!Conflict_log}). *)

type repair_stats = {
  rs_demoted : int;       (** losing live links tombstoned *)
  rs_attached : int;      (** directories re-parented into lost+found *)
  rs_cycles_broken : int; (** winner-graph cycles cut *)
  rs_orphans : int;       (** parent-less directories found *)
}

val repair : Physical.t -> (repair_stats, Errno.t) result
(** One repair pass: discover the stored parent graph, resolve it with
    {!Crdt_tree.resolve}, apply the decisions.  Idempotent — at the
    fixpoint every decision is a [Keep] and nothing changes.  Feeds the
    ["crdt.merges"], ["crdt.cycles_broken"], ["crdt.orphans_attached"]
    and ["crdt.losers_demoted"] counters (replica + obs registry) and
    emits a ["crdt:repair"] span when anything changed. *)

type tree_stats = {
  ts_reachable_dirs : int;
      (** directories reachable from the root via live entries *)
  ts_unreachable_dirs : int;
      (** stored directories holding live entries that no live path
          reaches — orphaned subtrees; 0 after repair *)
  ts_cycles : int;
      (** back-edges met walking the live tree; 0 after repair *)
}

val tree_stats : Physical.t -> (tree_stats, Errno.t) result

val digest : Physical.t -> (string, Errno.t) result
(** Canonical digest of the live tree: a depth-first walk in effective-
    name order emitting one line per entry (directories recurse; files
    contribute their version vector and content digest), hashed.  Two
    replicas hold the same resolved tree iff their digests are equal. *)

type pending = {
  p_entry_ids : int list;       (** conflict-log entries backing this register *)
  p_fidpath : Physical.fidpath;
  p_fid : Ids.file_id;
  p_span : int;                 (** trace span of the local version (0 untraced) *)
  p_register : Mv_register.t;   (** local version joined with every reported remote *)
}

val pending_registers : Physical.t -> pending list
(** The unresolved file conflicts as multi-value registers, one per
    file: the local stored version joined with every remote version the
    conflict log preserved.  What [ficusctl conflicts] lists. *)

val resolve_pending : Physical.t -> int
(** Resolve every pending file conflict the replica's resolver
    ({!Physical.set_merge_policy}) can decide ([Owner_report] decides
    none).  The chosen contents are installed
    under the {e join} of all version vectors — no bump — so replicas
    resolving independently install byte-identical results and later
    exchanges see them as up to date.  Returns how many registers were
    resolved; feeds ["crdt.mv_registers"] and
    ["crdt.resolver_invocations"]. *)
