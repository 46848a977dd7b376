(** The identity (null) layer.

    {!Vnode.forward} with nothing around each operation: every vnode
    operation goes unchanged to the layer below, and any vnode that
    comes back is wrapped so the whole subtree stays inside the layer.
    Useful on its own to measure the cost of crossing a formal layer
    boundary (paper §6: "one additional procedure call, one pointer
    indirection, and storage for another vnode block").

    Unlike the other interposed layers, it carries private [data] (the
    vnode below), so a sibling vnode from a different layer passed to
    [rename] or [link] fails with [EXDEV] instead of being
    misinterpreted. *)

val wrap : ?counters:Counters.t -> Vnode.t -> Vnode.t
(** [wrap v] interposes one null layer above [v].  If [counters] is given,
    each operation that crosses the boundary increments
    ["layer.crossings"]. *)

val wrap_depth : ?counters:Counters.t -> int -> Vnode.t -> Vnode.t
(** [wrap_depth n v] stacks [n] null layers above [v]. *)
