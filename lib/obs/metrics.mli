(** Process-wide metrics registry: counters, gauges, and exact
    simulated-clock latency histograms with nearest-rank percentiles. *)

type t

val create : unit -> t

(** {2 Counters} *)

val counters : t -> Counters.t
(** The counter section itself.  Components count into
    {!Counters.child} views of it ({!Obs.counters}), so each of their
    counts also lands here. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val counter : t -> string -> int

(** {2 Gauges} *)

val gauge_set : t -> string -> int -> unit
val gauge : t -> string -> int

(** {2 Histograms} *)

val observe : t -> string -> int -> unit
val hist_count : t -> string -> int

val hist_sum : t -> string -> int
(** Sum of every value observed under [name] (0 when none). *)

val percentile : t -> string -> float -> int option
(** [percentile t name p] is the nearest-rank [p]-th percentile (0-100)
    of every value observed under [name], or [None] if nothing was
    observed. *)

val percentiles : t -> string -> (int * int * int) option
(** [(p50, p95, p99)] of the named histogram. *)

(** {2 Snapshot} *)

type hist_summary = {
  hs_name : string;
  hs_count : int;
  hs_sum : int;
  hs_max : int;
  hs_p50 : int;
  hs_p95 : int;
  hs_p99 : int;
}

type snapshot = {
  snap_counters : (string * int) list;  (** non-zero counters, sorted by name *)
  snap_gauges : (string * int) list;
  snap_hists : hist_summary list;
}

val snapshot : t -> snapshot

val render : snapshot -> string
(** Line-oriented text form: [counter k v], [gauge k v],
    [hist k count= sum= max= p50= p95= p99=] records, one per line. *)

val reset : t -> unit
(** Zero the counters in place (views stay linked; their own counts are
    kept) and drop every gauge and histogram. *)
