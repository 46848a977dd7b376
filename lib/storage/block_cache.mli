(** Write-through LRU buffer cache over a {!Disk}.

    The cache is what turns the paper's "recently accessed" into a
    measurable property: a block hit costs zero device I/Os, a miss costs
    one.  Writes go through to the device immediately (UFS here is
    synchronous-metadata, like the original), updating the cached copy.
    A miss on a full cache evicts the least recently touched block; a
    read or a write touches its block.

    Ficus relies on the UFS cache continuing to exploit the namespace
    locality of its hex-encoded on-disk layout (paper §2.6); experiments
    E2/E3 read these hit/miss numbers. *)

type t

val create : ?capacity:int -> Disk.t -> t
(** [capacity] is the number of cached blocks (default 256).  A capacity
    of zero disables caching — every access reaches the device.

    Every operation is O(1).  Besides the cached blocks themselves, the
    cache costs one int per disk block (the block-to-slot map, sized
    from {!Disk.nblocks}) and four words per slot. *)

val disk : t -> Disk.t
val capacity : t -> int

val read : t -> int -> (bytes, Errno.t) result
(** Cached read.  The returned buffer is shared with the cache: callers
    must not mutate it (use {!read_copy} to mutate). *)

val read_copy : t -> int -> (bytes, Errno.t) result

val write : t -> int -> bytes -> (unit, Errno.t) result
(** Write-through: device first (so injected failures leave the cache
    consistent with media), then cache. *)

val invalidate : t -> unit
(** Drop every cached block — simulates the cache lost in a host crash,
    and lets experiments create a deliberately cold cache. *)

val version : t -> int
(** How many {!write}s (failed ones included) and {!invalidate}s this
    cache has seen.  While it stands, and nothing writes the {!Disk}
    behind the cache's back, every block reads back as it did; {!Ufs}
    keys its decoded-data caches on it. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
