(** Epidemic membership and peer liveness.

    The paper's stance on replicated state is epidemic: update hints are
    a best-effort multicast and everything converges by periodic
    pairwise reconciliation (§2.5, §3.2).  This module applies the same
    discipline to the {e membership} metadata itself — which hosts
    exist, which volume replicas each one stores, and whether each is
    believed alive — instead of the seed's synchronous peer-list
    fan-out.

    Each host keeps a {b membership table}: one {!entry} per known host,
    owned (mutated) only by that host and stamped with an
    [(incarnation, heartbeat)] pair.  Entries are exchanged by {b
    anti-entropy}: every [period] ticks a host picks a random peer and
    runs a three-message digest push/pull (Syn: digest; Ack: fresher
    entries + wanted hosts; Ack2: the requested entries) over unreliable
    {!Sim_net} datagrams.  The join on concurrent entries is a max over
    a total order, so exchange is commutative, associative and
    idempotent — any delivery order, duplicates included, converges.

    A {b failure detector} piggybacks on the same traffic: hearing from
    a peer directly, or learning a strictly fresher entry for it
    indirectly, refreshes its last-heard tick.  A peer silent for
    [suspect_missed] gossip periods becomes {!Suspect}, for
    [dead_missed] periods {!Dead}; a fresher incarnation or heartbeat
    refutes either.  Consumers read the verdict via {!liveness} and must
    treat it as a hint only (skip doubtful peers first, fall back to
    everyone) so one-copy availability is never sacrificed to a false
    suspicion. *)

(** {1 Liveness verdicts} *)

type liveness = Alive | Suspect | Dead

val liveness_to_string : liveness -> string

(** {1 Membership entries} *)

type status =
  | Member  (** participating host *)
  | Left    (** departed for good; beats [Member] at an equal stamp *)

type entry = {
  e_host : string;          (** owning host; only it mutates the entry *)
  e_incarnation : int;      (** bumped by the owner to refute stale news *)
  e_heartbeat : int;        (** bumped by the owner every gossip round *)
  e_status : status;
  e_replicas : (int * int * int) list;
      (** volume replicas stored on the host, as sorted
          [(allocator, volume, replica-id)] triples — kept as raw ints
          so this library sits below [Ids] in the dependency order *)
  e_cindex : int;
      (** highest control-plane committed index this host has observed —
          the bridge by which raft-committed control state reaches
          non-coordinators: it rides ordinary anti-entropy and lets any
          host compare the freshness of a gossip-learned view against a
          coordinator's committed index.  0 on gossip-only clusters. *)
  e_span : int;  (** span of the membership delta this entry carries *)
}

val entry_key :
  entry -> int * int * int * (int * int * int) list * int * int
(** Total order used by {!entry_join}: incarnation, heartbeat, status
    rank ([Left] above [Member]), replicas, control index, span. *)

val entry_join : entry -> entry -> entry
(** Least upper bound of two entries for the same host (max by
    {!entry_key}).  Raises [Invalid_argument] on differing hosts. *)

(** {1 Configuration} *)

type config = {
  period : int;          (** clock ticks between gossip rounds *)
  suspect_missed : int;  (** silent periods before [Suspect] *)
  dead_missed : int;     (** silent periods before [Dead] *)
  dead_probe_one_in : int;
      (** 1/n of partner picks ignore liveness entirely, so a
          wrongly-declared-dead peer is still probed and can refute *)
}

val default_config : config
(** [{ period = 4; suspect_missed = 3; dead_missed = 8;
      dead_probe_one_in = 4 }] *)

(** {1 The per-host daemon} *)

type t

val create :
  config:config -> seed:int -> obs:Obs.t -> net:Sim_net.t ->
  Sim_net.host_id -> t
(** Create the gossip daemon for one simulated host and register its
    datagram handler on [net].  [seed] and the host id seed the PRNG
    that picks gossip partners.  The daemon starts knowing only itself
    (status [Member], no replicas); acquaintances arrive epidemically,
    or immediately via {!introduce} at bootstrap. *)

val config : t -> config

val introduce : t -> t -> unit
(** Bootstrap shortcut for the simulation harness: hand each daemon the
    other's current self-entry, as if a join datagram had been
    delivered.  Everything after first contact is epidemic. *)

val set_replicas :
  t -> ?label:string -> ?cindex:int -> (int * int * int) list -> unit
(** Local membership delta: replace this host's replica set, bump its
    heartbeat and start a fresh span (labelled [label], default
    ["member:update"]) that travels with the entry — remote hosts append
    a ["gossip:learn"] event when the delta first reaches them.
    [cindex], when given, raises the entry's control-index high-water
    mark (it never lowers — the mark is monotone). *)

val leave : t -> unit
(** Mark this host [Left].  The tombstone spreads epidemically and wins
    over any [Member] entry with the same stamp. *)

val tick : t -> int
(** Drive the daemon: refresh liveness verdicts (recording
    suspect/dead/alive transitions in the metrics registry and span
    store) and, when a period boundary has passed, bump the local
    heartbeat and start an anti-entropy exchange with one partner.
    Returns the number of rounds begun (0 or 1). *)

val next_due : t -> int
(** The earliest clock tick at which {!tick} could possibly act: the
    next round boundary, or the earliest tick a silent peer crosses a
    suspect/dead threshold — whichever comes first.  Datagram arrival
    resets it to the current tick (a merge may flip a verdict
    immediately).  Calling {!tick} while [Clock.now < next_due] is
    guaranteed to be a no-op, which is what lets a driver skip idle
    daemons without changing a single observable (rounds fire at the
    same ticks, transitions are recorded at the same ticks, the PRNG is
    consumed identically). *)

val peers_version : t -> int
(** Monotone counter bumped whenever the table changes in a way
    {!replica_peers} or {!view} could observe: an entry learned, or a
    merge/local delta that changed a status or replica set.  Heartbeat
    refreshes do not bump it, so a consumer may cache derived peer lists
    keyed on this version instead of re-deriving every tick. *)

val liveness : t -> string -> liveness
(** Current verdict for a host name.  Unknown hosts — and the local host
    itself — are [Alive]: suspicion requires evidence. *)

(** {1 Doubts}

    The detector also keeps, per peer, the latest tick at which this
    host had reason to think the peer's datagrams might not have
    reached it: only since then does it know it missed none.  A peer is
    doubted when it is first learned, while it is judged [Suspect] or
    [Dead], when news of it ends a silence longer than the suspect
    timeout, and whenever a consumer reports a failure ({!doubt}).  A
    silence is counted in the peer's own heartbeats: news (an entry, or
    the sender's stamp in a digest) more than [suspect_missed]
    heartbeats past the last one known, or of a new incarnation, ends
    one, whether or not a {!tick} judged the peer while it lasted.
    Ticks since last heard would not do: a relayed copy of an old
    heartbeat refreshes that tick, so a partition longer than the
    timeout can end without it, and a simulation that advances many ticks
    per round sees a silence after a single round without contact. *)

val doubt : t -> string -> unit
(** Record a consumer's evidence against a host now: an RPC to it
    failed [EUNREACHABLE], or a pull was abandoned that the host may
    have served to others. *)

val doubted_at : t -> string -> int
(** The latest tick the host was doubted: now while it is judged
    [Suspect] or [Dead] or is not in the table, [min_int] for the local
    host and for a peer never doubted. *)

type detector = {
  liveness : string -> liveness;
  doubted_at : string -> int;
  doubt : string -> unit;
}
(** What a host's daemons and logical layer consult and feed. *)

val detector : t -> detector
(** {!liveness}, {!doubted_at} and {!doubt} of this daemon. *)

val no_detector : detector
(** A host without gossip: everyone [Alive] and every host doubted at
    every tick ([max_int]), since such a host has no record of the
    silences that would tell it a peer's datagrams were lost. *)

val view : t -> (string * int * status * (int * int * int) list) list
(** Heartbeat-free projection [(host, incarnation, status, replicas)],
    sorted by host: two tables agree on membership iff their views are
    equal, even though heartbeats keep counting. *)

val control_index : t -> int
(** The highest control-plane committed index any entry in the local
    table vouches for (own entry included) — how fresh a committed
    control view this host has provably seen.  0 when no coordinator
    state has ever reached it. *)

val replica_peers : t -> alloc:int -> vol:int -> (int * string) list
(** Who stores volume [(alloc, vol)], according to the local table:
    [(replica-id, host)] pairs from every [Member] entry, sorted by
    replica id. *)
