(** Performance-monitoring layer.

    The paper (§1) forecasts that the stackable architecture will be
    used "for performance monitoring, user authentication and
    encryption".  This is the first of those three: a transparent layer
    that counts every operation crossing it, its failures, and the
    simulated time it consumed — without the layers above or below
    changing in any way.  It is {!Vnode.forward} with a timing hook and
    the lower layer's [data], so the layer below still recognizes its
    own vnodes in [rename] and [link].

    Reports into a {!Metrics} registry: counters
    [measure.<op>.calls] and [measure.<op>.errors], and a latency
    histogram [measure.<op>.ticks] per operation (simulated-clock time
    observed below this layer, when a clock is supplied) from which
    {!Metrics.percentiles} reads quantiles.  [<op>] is the name
    {!Vnode.around} receives. *)

val wrap : ?clock:Clock.t -> metrics:Metrics.t -> Vnode.t -> Vnode.t

val report : Metrics.t -> (string * int * int) list
(** [(op, calls, errors)] rows, sorted by op name — a ready-made table. *)
