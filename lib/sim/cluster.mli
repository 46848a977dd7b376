(** Whole-system simulation harness: a set of hosts, each with a disk,
    buffer cache, UFS, NFS server, Ficus physical layers (one per volume
    replica stored), an update-propagation daemon, and a logical layer —
    all wired over one simulated network.

    This is paper Figure 1/Figure 2 as an executable object: the logical
    layer reaches a co-resident physical layer directly and any remote
    one through an interposed NFS client/server pair, without either
    layer knowing the difference. *)

type host

type t

val create :
  ?seed:int ->
  ?disk_blocks:int ->
  ?block_size:int ->
  ?ninodes:int ->
  ?disk_blocks_for:(int -> int) ->
  ?ninodes_for:(int -> int) ->
  ?cache_capacity:int ->
  ?propagation_delay:int ->
  ?reconcile_period:int ->
  ?selection:Logical.selection ->
  ?journal_blocks:int ->
  ?gossip:Gossip.config ->
  ?indexed:bool ->
  ?control:[ `Gossip | `Raft of int list ] ->
  ?health:Health.config ->
  ?dir_merge:[ `Legacy | `Crdt ] ->
  ?resolver:Resolver.t ->
  nhosts:int -> unit -> t
(** Hosts are named ["host0"], ["host1"], ….  All parameters are shared
    by every host.  [journal_blocks] (default 0) formats each host's UFS
    with a write-ahead journal of that size; the group-commit flush
    daemon is then driven by {!tick_daemons}.  The network starts
    fault-free; inject loss, latency, duplication, reordering or RPC
    failures with {!set_faults}.

    [gossip] (default: absent, the seed behavior) gives every host a
    {!Gossip} membership daemon driven by {!tick_daemons}.  Hosts are
    introduced to each other at bootstrap (the static host list), after
    which membership changes — {!add_replica}, {!remove_replica} — are
    purely local operations whose deltas converge epidemically, the
    daemons consult gossip liveness to try suspect/dead peers last, and
    peer lists are re-derived from each host's own membership table
    instead of being pushed.

    Each host's daemons take their settings from here:
    [propagation_delay] (default 0) is {!Propagation.create}'s [delay],
    [reconcile_period] (default 100 ticks) is {!Recon_daemon.create}'s
    [period], and [selection] (default [Most_recent], the paper's) is
    {!Logical.create}'s.  [seed] (default 11) seeds the network's fault
    PRNG and, offset per host, the gossip and raft PRNGs.

    [ninodes] and [cache_capacity] are forwarded to {!Ufs.mkfs}
    (defaults: derived from the disk size, and {!Block_cache.create}'s)
    — large synthetic workloads need more inodes than the derived
    count.

    [disk_blocks_for] / [ninodes_for] size individual hosts' disks by
    host index, overriding [disk_blocks] / [ninodes] where given.  Disks
    are sparse (a block costs memory only once written), so a host's
    size bounds what it can store, not what the cluster allocates.

    [indexed] (default [true]) selects the simulator's indexed hot
    paths: the network uses an event queue keyed by delivery tick
    ({!Sim_net.create}), and {!tick_daemons} keeps a per-host
    ready-queue so hosts with no queued datagrams, an empty new-version
    cache and no due timers are skipped entirely.  [~indexed:false] is
    the seed's linear scan — the same tick body with every per-host
    "is it due" test forced true — kept as the oracle for the
    equivalence property test and as the before arm of the SCALE
    benchmark; both modes produce identical cluster state, metrics and
    PRNG draws.

    [control] (default [`Gossip], the seed behavior) selects how
    control-plane metadata — the volume registry and replica sets — is
    owned.  [`Raft members] gives each listed host (by
    index; 3–5 is sensible) a {!Raft} member replicating a
    {!Control_plane} registry, with hard state persisted on the member's
    own journaled UFS.  {!create_volume}, {!add_replica} and
    {!remove_replica} then serialize through the coordinator log before
    any local mechanics (and fail with [EUNREACHABLE] when no quorum is
    reachable within 60 ticks, driving the daemons while they wait; a
    raft election takes 12–24), after which the change still propagates to
    non-members epidemically — the gossip entry carries the committed
    index it was serialized at, and pathname translation
    ({!logical_root}) resolves a stale graft point from whichever view,
    gossip or coordinator, carries the higher committed index.  File
    {e data} never touches consensus: one-copy availability is
    unchanged.  Members run {!Raft.default_config}.

    [health] (default: absent) arms the convergence watchdog: every
    [config.period] ticks of {!tick_daemons} the cluster derives live
    gauges — oldest undominated update age per volume
    ([health.divergence_age], a full pairwise version-vector walk of
    every stored replica), per-replica staleness from the new-version
    caches ([health.staleness], plus a [health.staleness.ticks]
    histogram of nonzero samples), journal flush backlog, gossip
    suspect count, raft leadership churn and propagation backlog — sets
    them in the metrics registry and classifies each against its SLO
    ({!Health.observe}), raising edge-triggered [Degraded]/[Stuck]
    events with span-linked evidence.  Off by default because the
    divergence walk reads every replica's full state each sample.

    [dir_merge] and [resolver] are the merge policy
    ({!Physical.set_merge_policy}) given to every replica the cluster
    creates, adds or reboots; each reconciliation pass follows the
    policy of the replica it pulls into.  [dir_merge] (default
    [`Legacy], the seed behavior) selects the directory-merge
    discipline.  [`Crdt] layers the conflict-free
    replicated tree under reconciliation: concurrent cross-renames that
    orphan or cycle whole subtrees are repaired deterministically into
    the replicated [lost+found] directory ({!Crdt_merge}) instead of
    being shunted to a replica-local orphanage.  [resolver] (default
    [Owner_report], the paper's behavior) is the file-conflict policy
    applied on [`Crdt]-mode passes: [Lww] and [App_merge] resolve
    concurrent file versions identically on every replica without
    communication; [Owner_report] leaves them in the {!Conflict_log}. *)

val clock : t -> Clock.t
val net : t -> Sim_net.t
val obs : t -> Obs.t
(** The cluster-wide observability bundle every layer of every host
    reports into. *)

val nhosts : t -> int

val host : t -> int -> host
val host_name : host -> string
val ufs : host -> Ufs.t
val disk : host -> Disk.t
val logical : host -> Logical.t
val propagation : host -> Propagation.t
val reconciler : host -> Recon_daemon.t
val gossip : host -> Gossip.t option
val control_plane : host -> Control_plane.t option
(** The consensus member / replicated registry on coordinator-group
    hosts; [None] elsewhere. *)

val raft_leader : t -> int option
(** The member currently acting as leader (highest term if a deposed
    leader hasn't heard the news yet); [None] mid-election or without
    raft. *)

val replicas : host -> (Ids.volume_ref * Physical.t) list
val replica : host -> Ids.volume_ref -> Physical.t option

val membership_converged : t -> bool
(** Do all gossip-enabled hosts hold the same membership view
    (heartbeats excluded)?  Vacuously true without [?gossip]. *)

val await_membership : t -> max_rounds:int -> int
(** Tick the cluster's gossip period ({!tick_daemons}) until
    {!membership_converged} or [max_rounds] periods have passed; returns
    the periods ticked (0 when already converged). *)

(** {1 Volumes} *)

val create_volume : t -> on:int list -> (Ids.volume_ref, Errno.t) result
(** Create a volume with one replica on each listed host (replica-ids
    1, 2, … in list order); registers NFS exports and update-notification
    wiring. *)

val add_replica : t -> host:int -> Ids.volume_ref -> (Ids.replica_id, Errno.t) result
(** Dynamically extend the volume's replica set (paper §3.1/§4.1: the
    set of containers is "maximal, but extensible", changeable "whenever
    a file replica is available"): create a fresh replica on [host],
    register its export and notification wiring, and populate the
    newcomer by reconciling it against an existing replica.  Without
    gossip, every accessible existing replica is eagerly taught the new
    peer list; with gossip this is a local operation whose membership
    delta converges epidemically. *)

val remove_replica : t -> host:int -> Ids.volume_ref -> (unit, Errno.t) result
(** Retire [host]'s replica: drop it from the host and (eagerly without
    gossip, epidemically with it) from every peer list.  Its storage is
    abandoned (as when a host leaves).  With [?control:`Raft] the
    retirement is serialized through the coordinator log {e first}, and
    the departing host's gossip delta carries the committed index, so
    both learning paths agree on the shrunken set. *)

val leave_host : t -> int -> unit
(** Planned, permanent departure: retire every replica the host stores
    (via {!remove_replica}; unreachable-coordinator errors are ignored —
    the host is leaving either way), mark its gossip entry [Left], and
    stop its raft member if it has one.  Once the [Left] tombstone
    spreads, the departed replicas stop counting in the tombstone-GC
    dominance check, so the survivors' removal tombstones can finally
    expire instead of waiting forever for a replica that will never
    reconcile again. *)

val replica_view : t -> int -> Ids.volume_ref -> (Ids.replica_id * string) list
(** The replica set for a volume as host [i] currently believes it: the
    coordinator's committed registry when this host can see one at least
    as fresh as its gossip view, the gossip-learned set otherwise, the
    static peer list on non-gossip clusters.  Two hosts whose views
    differ are inside a control-plane divergence window — the quantity
    the CONSENSUS experiment integrates over time. *)

val logical_root : t -> int -> Ids.volume_ref -> (Vnode.t, Errno.t) result
(** Graft if needed and return the client-facing root vnode for the
    volume as seen from this host. *)

val connect_from : t -> int -> Remote.connector
(** The connector used by host [i]'s layers: direct for co-resident
    replicas, NFS-mounted otherwise (mounts are cached). *)

(** {1 Failure and time control} *)

val partition : t -> int list list -> unit
(** Partition by host index groups. *)

val heal : t -> unit
(** Rejoin every host, reconnect severed links, end flaky windows
    ({!Sim_net.heal}).  Fault specs survive; see {!set_faults}. *)

val set_faults : t -> Sim_net.faults -> unit
(** Replace the network's global fault spec (loss, latency, duplication,
    reordering, RPC failure injection); pass {!Sim_net.no_faults} to
    quiesce. *)

val sever : t -> int -> int -> unit
(** [sever t i j]: cut the one-way link host [i] → host [j] (asymmetric
    partition), by host index. *)

val set_flaky : t -> int -> until:int -> unit
(** Make a host (by index) drop all traffic until the given clock tick. *)

val advance : t -> int -> unit

val reboot : t -> int -> (unit, Errno.t) result
(** Simulated host crash + restart: the buffer cache empties, volatile
    journal state is lost and sealed journal groups are replayed
    ({!Ufs.crash_reboot}), the NFS server forgets its file-handle table
    (old handles go stale), local NFS mounts drop their caches, physical
    layers re-attach from disk and discard shadow leftovers.  The
    remounted file system is fsck'd ({!Ufs.check}); corruption raises
    [Failure] rather than silently remounting. *)

(** {1 Daemons} *)

val pump : t -> int
(** Deliver pending datagrams (notifications) once. *)

val tick_daemons : t -> int -> int * Reconcile.stats
(** Advance the clock by [ticks], then drive every host's daemons once:
    pump datagrams, tick the gossip daemons (when enabled) and apply any
    epidemically learned peer-list changes, tick the journal
    group-commit flush daemons, run propagation, and tick the periodic
    reconcilers (which fire when their period elapses).  Returns (pulls,
    aggregated reconciliation stats).  This is how a long-running
    deployment converges without anyone calling {!converge}
    explicitly.

    With [~indexed:true] (the default) a ready-queue makes this cheap on
    quiet clusters: hosts with no freshly delivered datagrams, an empty
    new-version cache and no due reconciler/gossip timer are skipped
    entirely, and a fully quiescent tick is O(1).  Observable behavior
    is identical to the linear scan (see {!create}). *)

val run_propagation : t -> int
(** Pump, then run every host's propagation daemon once; repeats until no
    daemon makes progress.  Returns total pulls attempted. *)

val reconcile_ring : t -> Ids.volume_ref -> (Reconcile.stats, Errno.t) result
(** One reconciliation round: each replica pulls from the next around the
    ring (the paper's periodic pairwise protocol).  Unreachable pairs are
    skipped and counted in [errors]. *)

val reconcile_all_pairs : t -> Ids.volume_ref -> (Reconcile.stats, Errno.t) result
(** One round in which every replica pulls from every other — maximal
    per-round convergence at quadratic cost. *)

val reconcile_star : t -> Ids.volume_ref -> hub:int -> (Reconcile.stats, Errno.t) result
(** One round through a hub replica: the hub pulls from everyone, then
    everyone pulls from the hub — 2(n-1) pair reconciliations.  A [hub]
    storing no replica hands the role to the first one; a volume with no
    stored replica has an empty round. *)

val converge : t -> Ids.volume_ref -> ?max_rounds:int -> unit -> (int, Errno.t) result
(** Run reconciliation rounds until a full quiet round (nothing pulled,
    merged-in, or expired); returns rounds used, or [EAGAIN] if
    [max_rounds] (default 10) was hit. *)

(** {1 Observability} *)

type metrics_snapshot = {
  ms_metrics : Metrics.snapshot;
  ms_spans : (int * Span.event list) list;  (** every span's full timeline *)
}

val metrics_snapshot : t -> metrics_snapshot
(** One consistent view of the whole cluster: every counter, gauge and
    histogram (journal statistics folded in as [journal.*] gauges, span
    store occupancy as [spans.live]), plus the complete per-update span
    timelines — enough to reconstruct an update's write → notify → pull
    → install path across hosts. *)

(** {1 Health plane} *)

val health_events : t -> Health.event list
(** Every [Degraded]/[Stuck] event the watchdog has raised, oldest
    first ([[]] when the watchdog is off). *)

val health_sample_now : t -> unit
(** Force one watchdog sample immediately, off-period — for tests that
    need gauge values at an exact point in a schedule.  No-op when the
    watchdog is off. *)

val profile : t -> Health.Profile.t
(** The per-daemon tick profiler (always on): per-phase activation
    counts, daemon-reported work, and wall-clock self-time for the
    raft/gossip/journal/prop/recon phases of {!tick_daemons}. *)
