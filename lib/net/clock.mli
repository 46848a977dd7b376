(** Simulated time.

    A single logical clock shared by every component of a simulation;
    mtimes, cache timeouts, propagation delays and reconciliation periods
    are all expressed in its ticks.  Nothing in the repository reads wall
    time — runs are deterministic. *)

type t

val create : unit -> t
val now : t -> int
val advance : t -> int -> unit
(** Move time forward; negative amounts are rejected. *)

val tick : t -> unit
(** [advance t 1]. *)

val fn : t -> unit -> int
(** [fn t] is a [now] closure, the shape {!Ufs.mkfs} expects. *)
