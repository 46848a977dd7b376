(** Content-defined chunking for delta propagation.

    File contents are split into variable-size chunks at boundaries
    chosen by a gear rolling hash of a small sliding window, so an edit
    (even an insert that shifts every later byte) changes the identity of
    only the chunks overlapping it: once the hash window re-aligns, every
    later boundary — and therefore every later chunk digest — is the one
    the unedited file had.  The propagation daemon negotiates by digest:
    a puller that already stores most of a file's chunks fetches only the
    missing bodies.

    The boundary parameters and the gear table seed are part of the wire
    protocol: all replicas must cut identical boundaries for negotiation
    to find common chunks. *)

type chunk = {
  off : int;      (** byte offset of the chunk in the file *)
  len : int;
  digest : string;  (** 32-char lowercase hex MD5 of the chunk body *)
}

val min_size : int
(** No boundary is declared before a chunk reaches this size (1 KiB),
    bounding per-chunk overhead. *)

val max_size : int
(** A boundary is forced at this size (16 KiB), bounding the damage of
    pathological (e.g. constant) content that never hashes to one. *)

val mask_bits : int
(** Number of low hash bits that must be zero at a boundary; expected
    chunk size ≈ [min_size + 2^mask_bits] (≈ 5 KiB). *)

val split : string -> chunk list
(** Deterministic: equal contents yield equal chunk lists on every
    replica.  Chunks are contiguous, cover the input exactly, and every
    chunk but the last has [min_size <= len <= max_size].  The empty
    string splits into no chunks.  A boundary depends only on the
    [mask_bits] bytes ending at it, so each chunk's hashing starts that
    many bytes before its first allowed boundary. *)

val digest_hex : string -> string
(** Hex MD5 of a whole body (the same digest [split] gives each chunk). *)

val total_length : chunk list -> int

val encode_map : chunk list -> string
(** One line per chunk, [chunk=<hex-digest> <len>]; offsets are implied
    by accumulation, so the map is position-independent. *)

val decode_map : string -> chunk list option
(** Inverse of {!encode_map} (tolerating a missing trailing newline);
    [None] on any malformed line. *)

val slice : string -> chunk -> string
(** The chunk's body within its file's contents. *)

val reassemble :
  chunk list ->
  have:(string -> string option) ->
  fetched:(string -> string option) ->
  string option
(** Rebuild file contents from a chunk map, resolving each digest first
    against locally held bodies ([have]), then against freshly fetched
    ones ([fetched]).  [None] if any digest is unresolvable or a body's
    length disagrees with the map — callers fall back to a whole-file
    fetch. *)

(** File contents together with their whole digest and chunk map, each
    computed at most once, on first use.  This is the one form in which
    replicated bytes move from the pull to the install and into the
    chunk cache, so no step re-hashes what an earlier one hashed. *)
module Content : sig
  type t

  val make : string -> t
  (** Nothing hashed yet. *)

  val verified : string -> digest:string -> chunk list -> t
  (** Bytes whose whole digest and chunk map are already known: a delta
      pull's reassembly after every chunk body and the whole digest
      checked out.  The caller vouches for both. *)

  val bytes : t -> string

  val digest : t -> string
  (** {!digest_hex} of the bytes, computed at most once. *)

  val map : t -> chunk list
  (** {!split} of the bytes, computed at most once. *)
end
