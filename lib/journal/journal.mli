(** Block-level write-ahead journal with group commit.

    The journal generalizes the paper's shadow-file trick (write the new
    version beside the old, then atomically swap one reference — §3.2)
    into a storage-wide commit protocol: an operation opens a
    transaction, its block writes accumulate in an in-memory dirty set,
    and commit stages them for the log.  Staged transactions are group
    committed — they accumulate until a size threshold or a clock tick
    flushes them — by appending one checksummed record group to a
    reserved region of the device: a header block naming the home
    locations, the payload blocks, and a commit seal written last.  A
    later checkpoint writes the logged blocks to their home locations
    and advances the journal tail, after which the log space is reused.

    Durability contract: a transaction is durable exactly when the seal
    of its record group has reached the device.  Until then a crash
    loses it atomically — recovery replays every sealed group in order
    and discards a torn tail, so the recovered state is always the state
    after some prefix of committed transactions, never a mixture.

    The journal knows nothing about the file system above it or the
    cache below it: the embedder supplies home/log block I/O as
    closures, so the module depends only on block size and [Errno]. *)

type 'a io = ('a, Errno.t) result

type device = {
  block_size : int;
  home_read : int -> bytes io;
      (** Read a home block (normally through the buffer cache).  The
          returned buffer is treated as shared and never mutated. *)
  home_write : int -> bytes -> unit io;
      (** Write a home block (write-through, for checkpoint/replay). *)
  log_read : int -> bytes io;
      (** Raw device read inside the journal region (bypassing the
          cache keeps log traffic out of the LRU). *)
  log_write : int -> bytes -> unit io;
}

type t

val checksum : seed:int -> bytes -> int -> int -> int
(** [checksum ~seed b off len]: the 32-bit checksum the log's headers,
    seals and payloads carry, over [len] bytes of [b] from [off].  It
    runs a 64-bit multiply-xorshift over 8-byte words and folds the
    state to 32 bits; [seed] is the previous block's checksum when a
    record's payload blocks are chained. *)

val create :
  device ->
  start:int ->
  blocks:int ->
  ?flush_blocks:int ->
  ?flush_age:int ->
  now:(unit -> int) ->
  unit ->
  t
(** A journal over region [start, start + blocks) of the device: block
    [start] holds the journal superblock (tail pointer + sequence), the
    rest is the circular log.  [blocks] must be at least 4.  Group
    commit flushes when [flush_blocks] distinct dirty blocks have
    accumulated (default 32) or when {!tick} finds a commit older than
    [flush_age] clock units (default 8). *)

val format : t -> unit io
(** Write a fresh (empty) journal superblock — mkfs only. *)

val recover : t -> int io
(** Mount-time replay: scan sealed record groups from the tail,
    verifying checksums and sequence numbers; re-apply their blocks home
    in order (idempotent — replaying twice is harmless); stop at the
    first torn or stale record and discard everything after it; then
    reset the log to empty.  Returns the number of records applied. *)

val crash : t -> unit
(** Drop all volatile state (open transaction, staged commits, logged
    blocks awaiting checkpoint), as a power failure would.  Follow with
    {!recover} to replay whatever had reached the device. *)

(** {1 Transactions} *)

val begin_txn : t -> unit
(** Open a transaction (re-entrant: nested begins nest, and only the
    outermost {!commit_txn} commits). *)

val commit_txn : t -> unit io
(** Close the transaction, staging its dirty set for group commit.  May
    flush (and, under log-space pressure, checkpoint) if the size
    threshold is reached; an [Error] means the flush failed on the
    device — the staged writes remain in memory for a later retry. *)

val abort_txn : t -> unit
(** Discard the open transaction's dirty set — a clean rollback, since
    none of its writes have reached cache or device. *)

(** {1 Block I/O through the journal} *)

val read : t -> int -> bytes io
(** The current committed (or in-transaction) contents of a block:
    transaction dirty set, then staged commits, then logged blocks
    awaiting checkpoint, then the home device.  Shared buffer — do not
    mutate. *)

val read_copy : t -> int -> bytes io

val write : t -> int -> bytes -> unit io
(** Inside a transaction: buffer the write in the dirty set.  Outside:
    auto-commit it as a one-block transaction. *)

(** {1 Group commit} *)

val checkpoint : t -> unit io
(** Write logged blocks to their home locations and advance the tail,
    emptying the log.  It first forces staged commits into the log (one
    sealed record group), so [checkpoint] alone is "make everything
    durable and home". *)

val tick : t -> unit io
(** Clock-driven flush daemon hook: flush iff the oldest staged commit
    has waited at least [flush_age]. *)

val pending : t -> bool
(** Is at least one committed transaction staged and waiting for the
    group-commit flush?  While [false], {!tick} is a no-op — drivers may
    skip it. *)

(** {1 Introspection} *)

val stats : t -> (string * int) list
(** Lifetime counters, sorted by name: [txns] committed, [durable]
    transactions sealed, [flushes], [records] written, [checkpoints],
    [replayed] records at recovery, [bypasses] (oversized batches
    written straight home), [staged] / [logged] current block counts. *)
