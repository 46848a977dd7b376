(** Named event counters.

    The simulation charges costs (disk I/Os, layer crossings, RPCs,
    propagated bytes) to named counters so experiments can report them.
    Counters live in explicit counter sets, not global state, so parallel
    experiments never interfere. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** Zero for a counter never incremented. *)

val reset : t -> unit
(** Zero every counter. *)

val snapshot : t -> (string * int) list
(** Non-zero counters, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-name difference [after - before], dropping zero entries. *)
