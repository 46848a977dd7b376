(** The health plane: SLO thresholds over live convergence gauges, and
    a per-daemon tick profiler.

    The cluster's convergence watchdog samples gauges (divergence age,
    replica staleness, journal backlog, gossip suspects, raft churn,
    propagation backlog) on a period and feeds them through
    {!observe}; this module classifies each sample against the gauge's
    SLO and raises edge-triggered [Degraded]/[Stuck] events with
    span-linked evidence. *)

type level = Degraded | Stuck

type slo = { degraded : int; stuck : int; confirm : int }
(** A sample [v] is healthy below [degraded], [Degraded] while
    [degraded <= v < stuck], [Stuck] at [v >= stuck].  A level is only
    confirmed — and its event raised — once it has held for [confirm]
    consecutive samples (the Prometheus "for:" idiom); recovery clears
    on the first healthy sample. *)

val slo : ?confirm:int -> degraded:int -> stuck:int -> unit -> slo
(** [confirm] defaults to 1 (fire on first breach).
    @raise Invalid_argument
      unless [0 < degraded <= stuck] and [confirm >= 1]. *)

type config = { period : int; slos : (string * slo) list }
(** [period] is the watchdog sampling interval in simulated ticks;
    gauges without an entry in [slos] are informational only. *)

val default_config : config

val with_slo : config -> string -> slo -> config
(** Replace (or add) one gauge's thresholds. *)

type event = {
  hv_tick : int;
  hv_level : level;
  hv_gauge : string;
  hv_value : int;
  hv_limit : int;  (** the threshold that was crossed *)
  hv_span : int;  (** evidence span, [Span.none] when not applicable *)
  hv_detail : string;
}

type t

val create : metrics:Metrics.t -> config -> t
(** Event counts are kept as [health.events_degraded] /
    [health.events_stuck] / [health.recoveries] in a counter set that
    is a view of [metrics] ({!Counters.child}), so they surface there
    live. *)

val config : t -> config

val observe :
  t -> tick:int -> gauge:string -> value:int -> span:int -> detail:string -> unit
(** Classify one gauge sample.  Transitions are edge-triggered: an
    event fires only when the gauge's confirmed level escalates past a
    limit it was previously under; a return to healthy counts a
    recovery and re-arms the gauge. *)

val events : t -> event list
(** All events raised so far, oldest first. *)

val events_degraded : t -> int
val events_stuck : t -> int
val recoveries : t -> int

val current_level : t -> string -> level option
(** The gauge's level as of its last sample ([None] = healthy). *)

val pp_event : Format.formatter -> event -> unit

(** Per-daemon tick profiler: self-time and work attribution for the
    prop/recon/gossip/raft/journal phases of [Cluster.tick_daemons].
    Kept outside the metrics registry because wall-clock can never be
    part of the linear/indexed equivalence contract. *)
module Profile : sig
  type t

  val create : unit -> t

  val record : t -> daemon:string -> activations:int -> work:int -> us:int -> unit
  (** Record one phase activation: [activations] per-host daemon runs,
      [work] daemon-reported work units, [us] wall-clock self-time in
      microseconds (also bucketed into a power-of-two histogram). *)

  type row = {
    pr_daemon : string;
    pr_ticks : int;
    pr_activations : int;
    pr_work : int;
    pr_us : int;
  }

  val rows : t -> row list
  (** Top talkers first: by self-time, then work, then activations. *)

  val top : t -> row option

  val us_histogram : t -> string -> (int * int) list
  (** [(log2 bucket, count)] pairs for one daemon's self-times. *)

  val pp : Format.formatter -> t -> unit
end
