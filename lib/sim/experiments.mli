(** The experiment drivers behind `bench/main.exe`: one per reproduced
    paper claim (see DESIGN.md §4 and EXPERIMENTS.md).  Each prints a
    table and returns a machine-checkable verdict used by the test suite
    and the benchmark harness. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Obj of (string * value) list
  | List of value list
(** A JSON value: the shape of the numbers an experiment exports. *)

type verdict = {
  experiment : string;
  claim : string;     (** the paper's statement being reproduced *)
  holds : bool;       (** whether the measured shape matches *)
  detail : string;    (** the measured numbers, one line *)
  metrics : (string * value) list;
      (** the numbers [bench --json] exports, as envelope key -> value
          ([[]] for most experiments); the keys are exactly {!schema}'s *)
}

val e1_layer_crossing : unit -> verdict
(** §6: crossing a layer boundary costs one call + indirection; op cost
    grows linearly and slowly with stack depth. *)

val e2_cold_open : unit -> verdict
(** §6: opening a file in a non-recently-accessed directory costs exactly
    4 disk I/Os beyond plain UFS. *)

val e3_warm_open : unit -> verdict
(** §6: opening a recently-accessed file involves no I/O overhead beyond
    plain UFS (zero extra reads). *)

val e4_availability : unit -> verdict
(** §1/§3.1: one-copy availability strictly exceeds primary copy,
    majority voting, weighted voting and quorum consensus. *)

val e5_propagation : unit -> verdict
(** §3.2: notifications propagate updates to all replicas; delayed
    propagation collapses bursty updates into fewer, cheaper pulls. *)

val e6_reconciliation : unit -> verdict
(** §3.3/abstract: after a partition, directories reconcile automatically
    (including rename/rename and insert/insert), file conflicts are
    detected and reported, and nothing is silently lost. *)

val e7_conflict_rarity : unit -> verdict
(** §1/abstract: conflicting updates are rare under realistic locality
    and partition rates — the premise that makes optimism attractive. *)

type epoch_totals = { reads : int; writes : int; errors : int; conflicts : int }

val epoch_trace : write_fraction:float -> seed:int -> Workload.trace_config
(** One user's working set: 32 files under Zipf(1.0) popularity, mixed
    [100 - w] reads to [w] writes, [w] the write fraction in percent. *)

val partitioned_epochs :
  hosts:int -> epochs:int -> partition_prob:float -> write_fraction:float ->
  seed:int -> epoch_totals
(** The partitioned-epoch driver behind E7 and [ficusctl simulate]: a
    volume replicated on every host, one {!epoch_trace} working set set
    up and converged, then [epochs] epochs.  Each epoch is split into
    singleton partitions with probability [partition_prob], every host
    replays 30 ops of a freshly seeded trace, and the cluster heals and
    converges.  Returns the op counts and the conflicts every replica's
    log recorded.  [seed] seeds the cluster and the epoch draws. *)

val e8_shadow_commit : unit -> verdict
(** §3.2 fn.5: the shadow commit rewrites the whole file, so the cost of
    propagating a small update grows with file size. *)

val e9_open_close_encoding : unit -> verdict
(** §2.3/fn.2: NFS drops openv/closev but delivers the encoded-lookup
    open/close; the encoding costs ~55 name bytes, leaving ~200 for the
    user component. *)

val e10_autograft : unit -> verdict
(** §4: volumes are located and grafted on demand during pathname
    translation, pruned when idle, and re-grafted transparently. *)

val f2_layer_placement : unit -> verdict
(** Figure 2: the same client code runs with the physical layer
    co-resident (no RPC) or remote (NFS interposed), unchanged. *)

(** {1 Ablations} — design choices DESIGN.md calls out. *)

val a1_reconciliation_topology : unit -> verdict
(** Gossip topology: convergence rounds and per-round pair cost for
    ring vs. all-pairs vs. star reconciliation on diverged replicas. *)

val a2_tombstone_gc : unit -> verdict
(** Two-phase tombstone GC: with full peer participation directory files
    shrink back after deletions; with a silent peer, tombstones pin
    directory state (the cost the Wuu–Bernstein-style scheme avoids only
    when everyone gossips). *)

val a3_selection_policy : unit -> verdict
(** Replica-selection policy: RPC cost per remote read for Most_recent
    (version-vector polling, the paper's default) vs. Prefer_local vs.
    First_available. *)

val a4_trace_overhead : unit -> verdict
(** End-to-end overhead: replay an identical captured workload trace
    over plain UFS and over the full Ficus stack; steady-state disk I/O
    must stay within a small constant factor (§6). *)

val a5_journal_io : unit -> verdict
(** Write-ahead journal economics: an identical create/delete-heavy
    metadata workload run journal-off (write-through, one device write
    per metadata touch) and journal-on (group commit + checkpoint);
    journaled device writes must be strictly lower. *)

val chaos_convergence : unit -> verdict
(** §1/§3.3 under duress: a 4-replica volume runs through a randomized
    schedule of injected faults (datagram loss ≥ 0.2, latency,
    duplication, reordering, RPC failure injection, partitions,
    asymmetric severed links, flaky hosts) while every host keeps
    writing; after heal + quiesce, all replicas must report equal
    version vectors and identical directory contents.  Every host's UFS
    runs journaled, and every disk must fsck clean at the end. *)

val wal_crash_sweep : unit -> verdict
(** Journal crash safety, exhaustively: learn the per-op-prefix states
    and total device-write count W of a mixed metadata workload
    (create, write, rename, shadow-style install, link, unlink,
    truncate, a mid-point sync), then crash the device after exactly
    k = 0..W successful writes.  Every cold remount must replay to an
    fsck-clean state equal to some committed-op prefix, and any crash
    past the sync's last write must retain every pre-sync op. *)

val obslag_propagation_lag : unit -> verdict
(** Cluster-wide observability: three replicas, one partitioned away
    while the origin keeps writing.  Every update's span must yield a
    complete write → notify → pull → shadow-swap → install timeline from
    a single {!Cluster.metrics_snapshot}; per-replica propagation-lag
    percentiles come from the ["prop.lag.<host>"] histograms, and the
    partitioned replica's median lag (paid at reconciliation after the
    heal) must exceed the connected replica's (paid on the notify/pull
    path).  Journal group commits must be attributed to the same spans. *)

val reconscale_incremental_recon : unit -> verdict
(** Incremental reconciliation economics: a 1024-file two-replica
    volume, converged and quiescent.  The original full walk pays one
    [getvv] RPC per file; the incremental pass compares subtree summary
    vectors and prunes everything, costing a single batched RPC (>= 10x
    fewer).  A one-file change must descend into exactly one directory,
    prune the rest, and pull exactly that file.  Also asserts the
    consolidated [recon.*] / [prop.*] counters appear in one
    {!Cluster.metrics_snapshot}. *)

val member_gossip : unit -> verdict
(** Epidemic membership: on a 16-host gossip cluster, a replica added
    inside a partition is known only to its side until the heal, then
    becomes globally known within 4·log2(n) anti-entropy rounds with
    zero eager peer-list pushes — and every physical layer's peer list
    is re-derived from the converged tables.  Then the failure
    detector's economics: two identical 4-host clusters (gossip off /
    on) run the same flaky-host schedule; with gossip the doubtful
    origin's pulls park (["prop.rpcs_skipped_dead"]) and reconcilers
    try healthy peers first, so the outage burns measurably fewer
    failed RPCs — while the post-heal converge proves availability was
    never sacrificed. *)

val consensus_control : unit -> verdict
(** Control-plane ablation: two identical 8-host clusters run the same
    3-way partition schedule ({0,1,3,4} | {2,5} | {6,7}) with a
    replica-set change attempted from each side, differing only in who
    owns control metadata — gossip alone, or a 5-member {!Raft} group
    (hosts 0–4) bridged to non-members through the gossip entries'
    committed-index field.  The optimistic arm accepts both changes and
    pays a divergence window from the first minority-side edit until
    anti-entropy re-merges every view; the raft arm refuses the
    minority-side edit (recorded as [control.unavailable_ticks]),
    serializes the quorum-side one, and re-agrees within a bounded,
    strictly smaller window after the heal.  Both arms must keep
    data-plane writes succeeding on every partition side — one-copy
    availability never waits for consensus. *)

val health_watchdog : unit -> verdict
(** The convergence watchdog, two arms on identical 3-host journaled
    gossip clusters with [?health] armed (sample every 20 ticks;
    divergence/staleness degraded at 200 ticks, stuck at 600).
    Partitioned arm: isolate host0, update the shared file there, and
    the divergence-age gauge must climb from 0 through [degraded] to a
    [Stuck] event whose evidence span is the very update that cannot
    propagate; after the heal a write burst exercises the staleness
    gauge (nonzero p99) and everything must return to exactly 0.
    Quiescent arm: 3000 idle ticks must raise zero events. *)

val delta_propagation : unit -> verdict
(** Content-defined chunking on the propagation path, two arms on
    identical 2-host clusters: a 2 MiB file is written on host0 and
    propagated, then 100 bytes in the middle are overwritten and
    propagated again.  The whole-copy arm ([~prop_delta:false], the
    seed's shadow-commit economics — see {!e8_shadow_commit}) reships
    the file; the delta arm negotiates the chunk map and fetches only
    the chunks the edit dirtied.  The edit must travel with >= 20x
    fewer bytes than the baseline, with zero fallbacks, most chunks
    resolved locally, and bit-identical final contents on every
    replica in both arms. *)

val scale_ops : int ref
(** Trace length for {!scale_trace} (default 1_000_000).  The bench
    harness lowers it for smoke runs and CI (--scale-ops). *)

val scale_floor : float ref
(** Throughput regression floor in sim-ops/sec (default 0 = no floor).
    When positive, the SCALE verdict fails if the replay runs slower —
    this is the gate CI's bench-perf job enforces (--scale-floor). *)

val scale_trace_out : string option ref
(** Where the SCALE determinism arm writes its streaming trace export
    (--trace-out).  [None] (the default) still runs the export — the
    lossless-export invariant is part of the SCALE verdict — but into a
    temp file that is deleted afterwards. *)

val scale_trace : unit -> verdict
(** The SCALE benchmark, three arms.  (1) Throughput: a Zipfian
    read/write/rename/mkdir trace ({!Workload.trace}) streamed over a
    gossip cluster with a 4-replica volume, users spread round-robin
    over the replica hosts, daemons ticked every 2000 ops; reports
    sim-ops/sec and wall-clock, and requires zero op errors plus exact
    replica convergence after the drain.  (2) Determinism: two fresh
    same-seed replays (reduced size) must digest to bit-identical final
    state.  (3) Indexing: an identical cluster at rest is ticked under
    the legacy linear scan and the indexed ready-queue; the indexed
    ticks/sec must be at least twice the linear rate — the before/after
    measurement for the simulator's indexed hot paths. *)

val merge_repair : unit -> verdict
(** The CRDT directory-merge subsystem (DESIGN.md §11) against the seed
    OR-set merge, two arms on identical 2-host clusters driven through
    an adversarial schedule: a cross-rename cycle (a -> b/x while
    b -> a/y), a remove racing an update, and the same directory
    renamed into two different parents.  The [`Crdt] arm must converge
    with equal canonical digests, zero unreachable subtrees, zero
    live-tree cycles, and the payload buried in the cross-renamed
    subtree still reachable (re-parented under [lost+found]), with the
    repair counters showing the machinery actually engaged; the
    [`Legacy] arm documents the seed behavior — conflicts are reported
    to the log rather than repaired in place. *)

val names : string list
val run_by_name : string -> verdict option

val schema : string -> (string * string list) list
(** [schema name]: the envelope keys experiment [name]'s metrics carry,
    each with the keys required inside it, as declared next to the
    experiment in the registry ([[]] for an unknown name or one that
    exports nothing).  [bench --check-schema] derives a file's required
    keys from the experiments it names. *)
