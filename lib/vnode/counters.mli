(** Named event counters.

    The simulation charges costs (disk I/Os, layer crossings, RPCs,
    propagated bytes) to named counters so experiments can report them.
    Counters live in explicit counter sets, not global state, so parallel
    experiments never interfere.

    A set made with {!child} is a {e view} of its parent: every
    increment lands in the view and, through a link from the view's cell
    to the parent's cell of the same name, in the parent too.  A
    parent therefore holds the sum of its views' counts (plus any it
    counted itself).  This is how each component keeps its own counts
    while the cluster's metrics registry sees all of them. *)

type t

val create : unit -> t
(** A set with no parent. *)

val child : t -> t
(** [child parent] is a new, empty view of [parent]. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** Zero for a counter never incremented. *)

val reset : t -> unit
(** Zero every counter of this set, in place: views linked to it stay
    linked, and neither its views nor its parent are touched. *)

val snapshot : t -> (string * int) list
(** Non-zero counters, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-name difference [after - before], dropping zero entries. *)
