(** The observability bundle: one metrics registry + one span table,
    plus the shared [Logs] reporter tagging host and simulated time. *)

type t = { metrics : Metrics.t; spans : Span.t; mutable ctl_serial : int }
(** [ctl_serial] numbers the control requests ({!Remote}) issued under
    this bundle, making each request name unique so the NFS client's
    name cache never answers one (paper §2.2).  It is per bundle, hence
    per cluster, so the wire bytes those names cost depend only on the
    cluster's own calls. *)

val create : unit -> t

val default : t
(** Fallback bundle for components built without an explicit [?obs].
    Clusters create their own so simulations stay isolated. *)

val count : ?n:int -> t -> Counters.t -> string -> unit
(** Add [n] (default 1) to [key] in both the given private counter set
    and the bundle's metrics registry — the single mirroring helper the
    daemons share instead of each keeping its own copy. *)

val host_tag : string Logs.Tag.def
(** Attach with [Logs.Tag.add host_tag name Logs.Tag.empty] so the
    reporter prefixes the line with the emitting replica. *)

val reporter : ?out:Format.formatter -> now:(unit -> int) -> unit -> Logs.reporter
(** Formats every line as [[tick] LEVEL src host: msg] using the
    simulated clock. *)

val install_reporter :
  ?out:Format.formatter -> ?level:Logs.level -> now:(unit -> int) -> unit -> unit
