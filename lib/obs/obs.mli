(** The observability bundle: one metrics registry + one span table,
    plus the [Logs] tag naming the emitting host. *)

type t = { metrics : Metrics.t; spans : Span.t; mutable ctl_serial : int }
(** [ctl_serial] numbers the control requests ({!Remote}) issued under
    this bundle, making each request name unique so the NFS client's
    name cache never answers one (paper §2.2).  It is per bundle, hence
    per cluster, so the wire bytes those names cost depend only on the
    cluster's own calls. *)

val create : unit -> t

val counters : t -> Counters.t
(** A new private counter set for one component, made as a
    {!Counters.child} view of the bundle's registry: the component reads
    its own counts from it, and every count also lands in the registry
    and so in its snapshot. *)

val host_tag : string Logs.Tag.def
(** Attach with [Logs.Tag.add host_tag name Logs.Tag.empty] so a
    reporter that prints tags can attribute interleaved multi-host
    logs. *)
