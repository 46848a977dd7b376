(** Version vectors, after Parker et al., "Detection of Mutual Inconsistency
    in Distributed Systems" (IEEE TSE 1983), as used by Ficus to detect
    concurrent unsynchronized updates to file replicas.

    A version vector maps a replica identifier to the number of updates that
    replica has originated.  Missing entries are implicitly zero.  The
    vectors form a partial order under pointwise comparison; two vectors
    that are unordered witness a concurrent (conflicting) update history. *)

type replica_id = int
(** Replicas are identified by small integers.  Ficus replica ids are
    32-bit; the simulation never needs more than [max_int]. *)

type t
(** An immutable version vector. *)

val empty : t
(** The vector of a freshly created, never-updated object. *)

val singleton : replica_id -> int -> t
(** [singleton r n] is the vector with [n] updates at [r] and zero
    elsewhere.  Raises [Invalid_argument] if [n < 0]. *)

val of_list : (replica_id * int) list -> t
(** Build from association list; later bindings win.  Negative counts are
    rejected with [Invalid_argument]. *)

val to_list : t -> (replica_id * int) list
(** Bindings with non-zero counts, sorted by replica id. *)

val get : t -> replica_id -> int
(** [get v r] is the update count for [r] (zero when absent). *)

val bump : t -> replica_id -> t
(** [bump v r] records one more update originated at replica [r]. *)

val merge : t -> t -> t
(** Pointwise maximum: the least vector that dominates both arguments.
    Used when a replica adopts a newer version of a file. *)

val sum : t -> int
(** Total number of updates recorded (pointwise sum). *)

type comparison =
  | Equal       (** identical update histories *)
  | Dominates   (** left has seen everything right has, and more *)
  | Dominated   (** right has seen everything left has, and more *)
  | Concurrent  (** conflicting histories: neither includes the other *)

val compare_vv : t -> t -> comparison
(** Pointwise partial-order comparison. *)

val dominates : t -> t -> bool
(** [dominates a b] iff [compare_vv a b] is [Equal] or [Dominates]. *)

val concurrent : t -> t -> bool
(** [concurrent a b] iff neither vector dominates the other. *)

val equal : t -> t -> bool
(** Vector equality.  Callers must use this (or compare {!to_string}),
    never polymorphic [=]: the representation's shape depends on the
    order the bindings were inserted, so equal vectors can differ
    structurally. *)

val pp : Format.formatter -> t -> unit
(** Renders as [<r0:3 r2:1>]. *)

val to_string : t -> string

val encode : t -> string
(** Compact ASCII encoding, suitable for storage in an auxiliary attribute
    file: ["r:n,r:n,..."] sorted by replica id. *)

val decode : string -> t option
(** Inverse of {!encode}; [None] on malformed input. *)

val add_encoded : Buffer.t -> t -> unit
(** Appends {!encode}'s bytes to the buffer, building no string. *)

val add_int : Buffer.t -> int -> unit
(** Appends an int's decimal digits, as [%d] prints them, without
    allocating: the integer writer of the text codecs built on this one. *)
