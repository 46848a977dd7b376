(** Little-endian fixed-width integer (de)serialization helpers used by
    the UFS on-disk structures. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
(** Read 4 bytes as a non-negative OCaml int. *)

val set_u32 : bytes -> int -> int -> unit
(** Write the low 32 bits of a non-negative int. *)
