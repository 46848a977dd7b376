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
  | Most_recent       (** query accessible replicas' version vectors, use a maximal one (paper default) *)
  | Prefer_local      (** use a co-resident replica when one exists *)
  | First_available   (** first reachable replica in graft order *)

val create :
  selection:selection ->
  obs:Obs.t ->
  liveness:(string -> Gossip.liveness) ->
  host:string -> clock:Clock.t -> connect:Remote.connector -> unit -> t
(** [host] is this logical layer's host name, used to recognize local
    replicas; [connect] supplies physical-root vnodes (direct or via
    NFS).  [obs] receives metrics and the causal span that every
    mutating operation originates here, at the top of the stack.

    [liveness] (everyone [Alive] without gossip) lets the gossip failure
    detector steer replica selection: the first pass over a graft's
    replicas skips hosts judged [Suspect] or [Dead] (counted in
    ["logical.skipped_doubtful"]).

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
