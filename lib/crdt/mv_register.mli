(** Multi-value registers for concurrently updated files.

    A register holds the maximal antichain of versions seen for one
    file: joining in a version drops everything it dominates and is
    dropped if dominated, so two replicas exchanging registers converge
    to the same antichain regardless of order — the classic MV-register
    CRDT, with Ficus version vectors as the causal order.

    On top of the antichain, [winner] is the deterministic last-writer-
    wins pick every replica agrees on without communicating: largest
    total update count first (the vector that has absorbed the most
    history), then content digest, then the encoded vector — a total
    order over join-stable data only. *)

type version = { mv_vv : Version_vector.t; mv_data : string }

type t
(** A maximal antichain of concurrent versions. *)

val empty : t

val add : t -> version -> t
(** Join one version in: dominated versions (either direction) are
    dropped; a duplicate history (equal vv) keeps the
    lexicographically-smaller-digest data so ties break identically
    everywhere. *)

val join : t -> t -> t
val versions : t -> version list
(** The antichain, winner first: descending [Version_vector.sum], then
    data digest, then encoded vector. *)

val cardinal : t -> int

val winner : t -> version option
(** The last-writer-wins pick; [None] on an empty register. *)

val merge_all : (string -> string -> string) -> t -> version option
(** App-level merge: fold the user callback over the antichain in
    {!versions} order (so every replica folds identically); the
    result's vector is the join of every input's.  [None] when empty. *)
