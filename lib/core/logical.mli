(** The Ficus logical layer (paper §2.5).

    Presents clients with the abstraction that each file has a single
    copy, although it may have many physical replicas.  Per operation it

    - selects a replica according to the consistency policy in effect
      (the default, per the paper, is {e one-copy availability}: use the
      most recent copy available — and {e any} accessible copy may accept
      an update, no quorum, no primary);
    - maps client-supplied names to Ficus file handles and uses handles
      to address the physical layers below (through plain vnode [lookup]
      with reserved ["@hex"] names, so an interposed NFS costs nothing);
    - performs whole-file concurrency control among its own clients;
    - autografts volumes (paper §4.4): when pathname translation meets a
      graft point, the volume named there is located via the graft
      point's own entries and grafted transparently; idle grafts are
      quietly pruned later.

    Failover between replicas is the layer's whole point: an operation
    fails only if {e no} replica of the file is accessible. *)

type t

type selection =
  | Most_recent
      (** query accessible replicas' version vectors, use a maximal one
          (paper default); a host that stores a replica asks only the
          peers whose updates it may have missed (see {!create}) *)
  | Prefer_local      (** use a co-resident replica when one exists *)
  | First_available   (** first reachable replica in graft order *)

val create :
  selection:selection ->
  obs:Obs.t ->
  detector:Gossip.detector ->
  local_replica:(Ids.volume_ref -> Physical.t option) ->
  nvc:New_version_cache.t ->
  host:string -> clock:Clock.t -> connect:Remote.connector -> unit -> t
(** [host] is this logical layer's host name, used to recognize local
    replicas; [connect] supplies physical-root vnodes (direct or via
    NFS).  [obs] receives metrics and the causal span that every
    mutating operation originates here, at the top of the stack.
    [local_replica] is the host's replica of a volume, if it stores
    one, and [nvc] the host's new-version cache.

    [detector] (the host's gossip failure detector, or
    {!Gossip.no_detector}) steers replica selection: the first pass
    over a graft's replicas skips hosts judged [Suspect] or [Dead]
    (counted in ["logical.skipped_doubtful"]).

    Under [Most_recent] the first pass then polls the version of the
    object at every accessible replica (remote polls are counted in
    ["logical.polls"]) — except on a host whose own replica of the
    volume is accessible, which polls itself plus only the peers that
    may hold a version it has not heard of.  A peer [P] may, while
    [nvc] holds a pending entry for the object from [P]
    ({!New_version_cache.find}), while [nvc] records [P] as having
    installed a version of it by reconciliation since this host last
    caught up with [P] ({!New_version_cache.holders}), and until the
    local replica has caught up with [P] at all: a reconciliation pass
    from [P] ({!Reconcile.reconcile_volume}) completed after the later
    of the replica's attach and [P]'s last doubt ({!Gossip.doubted_at}:
    a silence or verdict of the detector, an [EUNREACHABLE] from [P] to
    any of this host's NFS mounts, or an abandoned pull).  Every other
    peer holds nothing the local copy lacks as long as notifications
    are delivered: what it wrote, or installed by reconciliation, since
    this host caught up with it was announced here, and what it pulled
    came from an origin that announced it here.  Those peers are not
    polled (counted in ["logical.polls_skipped"]) and follow the polled
    ones in graft order, so failover still reaches them.  Every
    accessible replica is polled when the local replica cannot answer
    with a stored copy, and when the origin of a pending entry does not
    answer: any peer may have pulled that version from it.  Without a
    detector every peer is always doubted, so a host without gossip
    polls everyone.

    When notifications are delivered, the choice equals polling every
    replica the first pass can reach, during partitions as well
    ([test/test_props.ml] checks it against a polling oracle over random
    write, rename, partition and heal schedules).  What this gives up:
    - a notification lost without any failure this host sees — a
      dropped datagram, or a partition shorter than the suspect timeout
      (counted in the peer's gossip rounds) that this host never sent
      into — leaves a read stale until the next completed pass that
      brings the version, at most one reconciliation rotation (peers ×
      reconcile period ticks) later.  Measured over a 4-host gossip
      cluster with 10% datagram loss, a write every 10 ticks and 5-tick
      pulls ([test/test_logical.ml], "staleness under loss"): 15 of
      12,800 reads stale, the oldest 15 ticks after the write it missed,
      against a 60-tick rotation; a copy that never polls a peer reads
      1,171 stale;
    - concurrent versions: a pass that only logs a conflict counts as
      caught up, so a peer's conflicting copy with the longer history is
      not polled; the conflict log reports it.

    Each replica also carries a negative entry: the clock tick at which
    it last answered [EUNREACHABLE] (to a connect, a [Most_recent]
    version poll or the operation itself); any other answer, or
    {!reset_connections}, clears it.  While the clock still shows that
    tick the first pass skips the replica (counted in
    ["logical.skipped_unreachable"]), so a partition costs one failed
    call per peer per tick rather than one per operation.

    Neither skip is binding: when the first pass fails with some replica
    unconsulted, the retry pass tries the full list, entries and
    liveness ignored — one-copy availability is never forfeited to a
    suspicion or to a heal within the tick. *)

val counters : t -> Counters.t
(** A view of [obs]'s registry ({!Obs.counters}): ["logical.ops"],
    ["logical.polls"] ([Most_recent] version polls sent to a remote
    replica), ["logical.polls_skipped"] (peers left unpolled),
    ["logical.updates"] (mutating ops, each stamped with a fresh span),
    ["logical.fallback"] (ops served by a non-preferred
    replica), ["logical.retry_pass"] (ops that needed the full-list
    retry pass), ["logical.autograft"], ["logical.lock_denied"],
    ["logical.prune"], ["logical.skipped_doubtful"],
    ["logical.skipped_unreachable"]. *)

(** {1 Volumes and grafting} *)

val graft_volume :
  t -> Ids.volume_ref -> replicas:(Ids.replica_id * string) list -> unit
(** Explicitly graft (mount) a volume — normally only the super-volume;
    everything below arrives by autografting. *)

val grafted : t -> (Ids.volume_ref * (Ids.replica_id * string) list) list

val prune_grafts : t -> idle:int -> int
(** Drop autografted volumes unused for at least [idle] ticks; returns
    how many were pruned.  Explicit grafts stay. *)

val reset_connections : t -> unit
(** Drop every cached physical-root connection (e.g. after a server
    reboot invalidated NFS handles); they reconnect lazily. *)

(** {1 The client-facing vnode stack} *)

val root : t -> Ids.volume_ref -> (Vnode.t, Errno.t) result
(** The logical root vnode of a grafted volume: what the system-call
    layer mounts. *)

val open_locks : t -> int
(** Number of files currently open through this layer (lock-table size),
    for tests of the concurrency-control bookkeeping. *)
