(** Simulated wide-area network.

    The environment the paper targets is one of "continual partial
    operation": hosts, links and gateways fail independently and
    partitions are the norm, not the exception (§1).  This module gives a
    simulation direct control over exactly that — which hosts can talk —
    plus two communication primitives:

    - {b datagrams}: unreliable, asynchronous, queued until {!pump}; used
      for Ficus update notifications ("asynchronous multicast datagram",
      §2.5).  Dropped silently across partitions or by the configured
      loss rate.
    - {b RPC}: synchronous request/response; used by the simulated NFS.
      Fails with [EUNREACHABLE] across a partition — the caller sees the
      same thing as an RPC timeout.

    On top of partitions sits a {b fault-injection layer} ({!faults}):
    datagram latency (delivery scheduled on clock ticks), duplication,
    reordering, extra loss, and probabilistic RPC failure, one spec for
    the whole network; plus transient "flaky host"
    windows ({!set_flaky}) and one-way severed links ({!sever}).  All
    randomness flows through the seeded PRNG, so a given (seed, schedule)
    is fully deterministic.

    Payloads are an extensible variant: each protocol (NFS, Ficus
    notifications…) declares its own constructors and hosts may register
    several handlers; a handler ignores payloads it does not recognize. *)

type host_id = int

type payload = ..

type t

(** {1 Fault model} *)

type faults = {
  loss : float;            (** extra datagram loss probability *)
  rpc_failure_prob : float;(** each RPC fails with [EUNREACHABLE] *)
  latency_min : int;       (** datagram delivery delay, in clock ticks *)
  latency_max : int;       (** drawn uniformly from [min, max] *)
  duplication_prob : float;(** datagram delivered twice *)
  reorder_prob : float;    (** packet slips behind its successor at delivery *)
}

val no_faults : faults
(** All zeros: the pre-fault-injection behavior. *)

val create : seed:int -> obs:Obs.t -> indexed:bool -> Clock.t -> t
(** A network with no hosts and no faults: {!set_faults} is the one way
    to inject them.  [seed] seeds the PRNG every fault draw uses.

    The network's counters ({!counters}) are a view of [obs]'s metrics
    registry, so they also appear in its snapshot.

    [indexed] selects the queue representation: an
    event queue keyed by delivery tick, so {!pump} touches only ripe
    packets, versus the legacy flat list that every pump partitions and
    sorts.  The two are observably identical — same delivery order, same
    PRNG consumption, same counters — differing only in cost; the linear
    path is kept as the oracle for the equivalence property test and as
    the before arm of the SCALE benchmark. *)

val set_deliver_hook : t -> (host_id -> unit) -> unit
(** Install a callback invoked with the destination host id of every
    {e delivered} datagram (dropped ones excluded), before its handlers
    run.  The cluster harness uses it to mark hosts with freshly arrived
    work as runnable in its ready-queue.  At most one hook; a second
    call replaces the first. *)

val set_faults : t -> faults -> unit
(** Replace the global fault spec.  Raises [Invalid_argument] on
    probabilities outside [0,1] or negative latencies. *)

val clear_faults : t -> unit
(** Drop the fault spec (back to {!no_faults}).  Does not heal partitions, severed links or flaky
    windows; see {!heal}. *)

val set_flaky : t -> host_id -> until:int -> unit
(** Mark a host flaky: until the clock reaches [until], it can neither
    send nor receive anything (datagrams drop, RPCs in either direction
    fail with [EUNREACHABLE]).  Cleared early by {!heal}. *)

val clock : t -> Clock.t
val counters : t -> Counters.t
(** ["net.datagrams.sent"], ["net.datagrams.delivered"],
    ["net.datagrams.dropped"], ["net.datagrams.duplicated"],
    ["net.datagrams.reordered"], ["net.rpc.calls"], ["net.rpc.failed"],
    ["net.rpc.injected"] (the subset of failures due to injection). *)

val add_host : t -> string -> host_id
val host_name : t -> host_id -> string
val hosts : t -> host_id list

(** {1 Partitions} *)

val set_partition : t -> host_id list list -> unit
(** Divide the network into the given groups; hosts in different groups
    cannot exchange any traffic.  Hosts not mentioned keep their current
    group only if it still exists, otherwise each becomes isolated.
    Simplest usage: list every host exactly once. *)

val heal : t -> unit
(** Put every host back into one group, reconnect every severed link and
    end every flaky window.  Fault specs ({!set_faults} etc.) survive;
    use {!clear_faults} for those. *)

val isolate : t -> host_id -> unit
(** Cut one host off from everyone else, by moving it to the lowest
    group id no other host occupies (safe to call repeatedly and after
    {!set_partition} left sparse group ids behind). *)

val sever : t -> src:host_id -> dst:host_id -> unit
(** Cut the directed link [src → dst]: datagrams from [src] to [dst]
    drop and RPCs fail, while traffic the other way still flows — an
    asymmetric partition.  Undone by {!unsever} or {!heal}. *)

val unsever : t -> src:host_id -> dst:host_id -> unit

val reachable : t -> host_id -> host_id -> bool
(** [reachable t src dst]: same partition group, the directed link is
    not severed, and neither end is flaky.  Hosts can always reach
    themselves.  Directional once {!sever} is in play. *)

(** {1 Datagrams} *)

val send : t -> src:host_id -> dst:host_id -> payload -> unit
(** Queue a datagram.  Its delivery tick is [now + latency] drawn from
    the fault spec (zero by default).  Reachability is checked
    at {e delivery} time, so a partition that forms after [send] still
    loses the message.  May enqueue a duplicate per [duplication_prob]. *)

val broadcast : t -> src:host_id -> dst:host_id list -> payload -> unit
(** The multicast notification primitive: one {!send} per destination. *)

val register_handler : t -> host_id -> (src:host_id -> payload -> unit) -> unit
(** Datagram receivers; every handler on the destination host sees every
    delivered datagram and ignores payloads it does not recognize. *)

val pump : t -> int
(** Deliver every queued datagram whose delivery tick has arrived
    (dropping unreachable/lost ones); returns the number delivered.
    Packets with a future delivery tick stay queued — advance the clock
    and pump again.  Handlers may queue more datagrams; those wait for
    the next pump. *)

val pending : t -> int
(** Queued packets, including ones whose delivery tick is still in the
    future. *)

(** {1 RPC} *)

val register_rpc : t -> host_id -> (src:host_id -> payload -> payload option) -> unit
(** RPC servers; the first handler returning [Some response] wins. *)

val call : t -> src:host_id -> dst:host_id -> payload -> (payload, Errno.t) result
(** Synchronous call; [EUNREACHABLE] across a partition or severed/flaky
    link, or with probability [rpc_failure_prob] even when connected
    (the caller cannot tell a lost request from a lost reply — both look
    like a timeout); [ENOTSUP] if no handler on the destination
    recognizes the request. *)
