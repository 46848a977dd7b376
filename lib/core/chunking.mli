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

val resplit : old:string -> chunk list -> string -> chunk list * int
(** [resplit ~old old_map data], where [old_map] is [split old]:
    [split data], and the number of bytes it digested to get there.
    The map follows the edit from [old] to [data], as LBFS reuses
    chunks.  Walking the cuts of [data] from the start, an old chunk
    that starts at the cut over the same bytes is the next chunk, digest
    and all.  It is looked for at the same offset and at the offset
    shifted by the length change.  The last old chunk also needs the
    same end of file.  So:
    - every old chunk that ends before the first changed byte is kept;
    - cutting and digesting restart at the start of the chunk holding
      that byte;
    - once a cut past the last changed byte lands on an old cut shifted
      by the length change, every later chunk and its digest is reused;
    - so is an unchanged chunk between two in-place edits.
    An edit inside one chunk of a large file digests about that chunk
    instead of the whole file.  Bytes are compared 8 at a time.  Equal
    contents return [old_map] itself and 0. *)

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
    chunk-map slot, so no step re-hashes what an earlier one hashed. *)
module Content : sig
  type t

  val make : string -> t
  (** Nothing hashed yet. *)

  val verified : string -> digest:string -> chunk list -> t
  (** Bytes whose whole digest and chunk map are already known: a delta
      pull's reassembly after every chunk body and the whole digest
      checked out.  The caller vouches for both. *)

  val with_map : string -> chunk list -> t
  (** Bytes whose chunk map is already known ({!split} of them, or a
      {!resplit} that equals it); the digest is computed on first use. *)

  val bytes : t -> string

  val has_map : t -> bool
  (** Whether {!map} is already computed. *)

  val digest : t -> string
  (** {!digest_hex} of the bytes, computed at most once. *)

  val map : t -> chunk list
  (** {!split} of the bytes, computed at most once. *)
end
