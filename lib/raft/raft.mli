(** A deterministic Raft core over {!Sim_net} datagrams.

    Ficus keeps file {e data} optimistic — any replica accepts any
    update, divergence is reconciled later — but control-plane metadata
    (which hosts hold which replicas, where volumes are grafted) has no
    natural merge: two partitions editing the same replica set can
    disagree for unbounded time under pure gossip.  This module provides
    the alternative the ROADMAP calls for: a small elected-coordinator
    group that serializes control commands through a replicated log, so
    there is always one authoritative, linearizable history of control
    decisions — while the data plane keeps Ficus one-copy availability.

    The implementation is vanilla Raft (Ongaro & Ousterhout 2014)
    restricted to what a simulation needs, with every source of
    nondeterminism routed through the seeded PRNG and the simulated
    clock:

    - {b roles}: follower / candidate / leader, randomized election
      timeouts drawn from [election_min, election_max];
    - {b persistence}: the hard state (term, vote, log, snapshot) is
      encoded to one string and handed to a caller-supplied [persist]
      pair before any message that depends on it is sent — the cluster
      harness stores it in a file on the member's journaled UFS, so a
      {!crash_recover} after {!Ufs.crash_reboot} finds exactly the
      sealed prefix;
    - {b replication}: AppendEntries with conflict back-off, commit
      advancement restricted to current-term entries, and a leader no-op
      entry appended on election so earlier-term entries commit
      promptly;
    - {b compaction}: once the applied prefix outgrows
      [snapshot_threshold], the state machine is asked to snapshot
      itself and the log is truncated; followers too far behind are
      caught up with an InstallSnapshot message.

    Messages are processed at datagram delivery (handlers registered on
    the net), so duplication, reordering and loss from the fault layer
    are tolerated the way the protocol intends: stale terms are dropped,
    duplicate votes don't double-count, appends are idempotent. *)

type role = Follower | Candidate | Leader

type entry = {
  e_term : int;
  e_index : int;
  e_cmd : string;  (** opaque encoded command; [""] is the leader no-op *)
  e_span : int;    (** observability span riding the entry, or [Span.none] *)
}

type config = {
  heartbeat : int;      (** ticks between leader AppendEntries rounds *)
  election_min : int;   (** election timeout drawn uniformly from *)
  election_max : int;   (** [election_min, election_max] ticks *)
  snapshot_threshold : int;
      (** compact once this many applied entries sit above the snapshot;
          [0] disables compaction *)
}

val default_config : config
(** [{ heartbeat = 4; election_min = 12; election_max = 24;
      snapshot_threshold = 64 }] — sized against the gossip period (4)
    so coordinator elections settle within a few gossip rounds. *)

type persist = {
  p_save : string -> unit;
      (** Durably store the encoded hard state; called {e before} any
          message depending on it leaves the node. *)
  p_load : unit -> string option;
      (** Reload it; [None] means a blank node (first boot). *)
}

type t

val create :
  config:config ->
  seed:int ->
  persist:persist ->
  obs:Obs.t ->
  net:Sim_net.t ->
  peers:string list ->
  apply:(index:int -> string -> unit) ->
  snapshot:(unit -> string) ->
  restore:(string -> unit) ->
  Sim_net.host_id ->
  t
(** One Raft member on host [id].  [peers] is the full member list by
    host name, this member included; the group is static.  [apply] is
    called exactly once per committed command, in index order (no-ops
    excluded).  [snapshot] must render the state machine after every
    [apply] so far; [restore] must replace it (the empty string restores
    the initial state).  Hard state is saved through [persist], and
    {!create} starts from whatever [p_load] returns.  [seed] and the
    host id seed the election-timeout PRNG. *)

val host : t -> string
val config : t -> config
val role : t -> role
val term : t -> int
val leader_hint : t -> string option
(** Who this member currently believes leads (itself when leader). *)

val commit_index : t -> int
val snapshot_index : t -> int

val log_view : t -> (int * int) list
(** [(index, term)] pairs of the in-log suffix (post-snapshot), in
    ascending index order — what the log-matching property quantifies
    over. *)

val submit : t -> ?span:int -> string -> (int, string option) result
(** Propose a command.  On the leader, appends it (persisted) and
    returns its log index; commitment is observed later via [apply] or
    {!commit_index}.  On any other role, [Error hint] names the believed
    leader so the client can retry there. *)

val tick : t -> unit
(** Drive timeouts: candidates/followers start elections past their
    randomized deadline; leaders send their AppendEntries round when the
    heartbeat interval elapses.  Message {e handling} is not here — it
    happens at datagram delivery. *)

val next_due : t -> int
(** Earliest tick at which {!tick} could act (election deadline or next
    heartbeat); ticking earlier is a guaranteed no-op, which lets the
    indexed cluster driver skip idle members.  Datagram arrival may move
    it closer. *)

val crash_recover : t -> unit
(** Simulated crash + reboot in place: volatile state (role, commit
    index, leader hint, peer cursors) is reset, hard state is reloaded
    through [persist] (without it the node keeps its in-memory hard
    state), and the state machine is rolled back to the snapshot via
    [restore] — committed-but-unapplied entries are re-applied as the
    new leader re-advances the commit index. *)

val stop : t -> unit
(** Permanently silence the member (handlers drop everything, tick
    no-ops) — a host that left for good. *)
