(** A from-scratch Unix file system on a simulated disk.

    This is the storage substrate Ficus stacks on: inodes, allocation
    bitmaps, directories, and a write-through buffer cache, with a real
    on-disk layout so that every metadata or data access is charged to the
    device unless the buffer cache absorbs it.  It deliberately keeps the
    4.2BSD UFS shape the paper assumes — inode + data page per file
    touched — because the §6 I/O-overhead numbers are stated in exactly
    those units.

    Differences from a production UFS, chosen for the simulation:
    ["."]/[".."] entries are implicit; [link] may target directories
    (Ficus directories form a DAG — paper §2.5); by default all metadata
    writes are synchronous write-through.

    A file maps 12 direct blocks and one single-indirect block of
    pointers.  A read, a mapping and an unmapping each read the
    indirect block at most once, and a trim writes it only when one of
    its pointers goes.  Blocks and inodes are allocated
    lowest-free-first, and an allocation or a free writes each bitmap
    block it changes once.  Allocating sets the bitmap bits, then writes
    the data, the indirect block and the inode; freeing writes the
    pointers, then clears the bits.  So on a write-through disk a cut
    call leaks blocks at worst and never leaves a live file on a free
    block.

    Formatting with [~journal_blocks] reserves a write-ahead journal
    region at the tail of the disk and turns every mutating operation
    into a transaction: its block writes buffer in memory, group commit
    seals batches of transactions into the log (amortizing the paper's
    one-I/O-per-metadata-touch cost), a checkpoint later writes them
    home, and {!mount} replays sealed batches after a crash.  See
    {!Journal} for the protocol and DESIGN.md for the on-disk format.

    A write epoch lasts until the next block write, aborted transaction,
    or block-cache write or invalidation ({!Block_cache.version}).
    Decoded inodes are kept for one epoch.  Each inode has at most one
    view: the bytes it held when last read whole or stored, with a
    directory's parse and name index built from them when first needed.
    A view is reused as it stands within the epoch it was checked in;
    in later ones each block read is compared with it in place, and it
    is copied only from the first block that differs.  Views hold at
    most twice the blocks the buffer cache holds (each charged at least
    one block), and are dropped together when the next would not fit.
    A read answered from them still makes every block access the
    decoding read makes, in the same order, so cache hits, misses and
    device reads do not depend on them.

    Every data write, to a file or a directory, goes through one block
    writer, which writes a mapped block only when its bytes change:
    it compares the new bytes with the view when that was checked in
    this epoch, else with the block as read.

    A directory is whole blocks, each a chain of self-sized records as in
    4.2BSD, so every block parses on its own and no record crosses a
    block boundary (the format is under {!parse_dir}).  Every directory
    mutation changes the records it names where they stand: an append
    takes the first free record or live record's slack with room, else
    a new block; a drop frees its record (a block's first record becomes
    free space, any other merges into the record before it); a rename
    rewrites its record in place when the new name fits; a rename over
    an existing name rewrites that record's inode number and kind and
    drops the source's record.  So an edit writes only the blocks
    holding those records, at most two, then the inode, and a
    directory keeps its blocks until it goes.  The view's name index
    maps each name to its record's offset and is edited in place with
    it; the entry list is parsed only for {!dir_entries}, {!check} and
    the emptiness test of a directory that goes. *)

type t

type inum = int
(** Inode number; the root directory is inode 1 (0 is reserved). *)

type kind = Reg | Dir

type attrs = {
  kind : kind;
  size : int;
  nlink : int;
  mtime : int;
  mode : int;
  uid : int;
  gen : int;  (** incremented each time the inode slot is reused *)
}

type 'a io = ('a, Errno.t) result

val mkfs :
  ?cache_capacity:int -> ?ninodes:int -> ?inode_size:int ->
  ?journal_blocks:int -> ?journal_flush_blocks:int -> ?journal_flush_age:int ->
  now:(unit -> int) -> Disk.t -> t io
(** Format the disk and mount the fresh file system.  [now] supplies
    mtime stamps (typically the simulated clock).  Default [ninodes] is
    one per four data blocks.  [inode_size] (default 128, min 128, must
    divide the block size) controls how many inodes share a block: the
    I/O-accounting experiments set it to the block size so each inode
    fetch is one I/O, as on a cylinder-group UFS where distinct files'
    inodes rarely share a cached block.

    [journal_blocks] (default 0 = unjournaled, else at least 4) reserves
    that many blocks at the tail of the disk for the write-ahead
    journal.  [journal_flush_blocks] and [journal_flush_age] are the
    group-commit thresholds ({!Journal.create}'s [flush_blocks] and
    [flush_age], with its defaults): staged transactions flush to the
    log when that many distinct blocks are dirty, or when
    {!journal_tick} finds the oldest commit has waited that long.
    [cache_capacity] sizes the buffer cache ({!Block_cache.create}'s
    [capacity], with its default), and with it the views' bound.
    [EINVAL] for a block size under 512 or over 65,535 (a directory
    record's 16-bit length must span a block). *)

val mount :
  ?cache_capacity:int -> ?journal_flush_blocks:int -> ?journal_flush_age:int ->
  now:(unit -> int) -> Disk.t -> t io
(** Mount an existing file system (e.g. after a simulated crash: the
    buffer cache starts cold).  If the superblock names a journal
    region, sealed record groups are replayed and torn tails discarded
    before the mount returns — the recovered state is always the state
    after some prefix of committed transactions.  Fails with [EINVAL] on
    a bad superblock. *)

val root : t -> inum
val cache : t -> Block_cache.t
val disk : t -> Disk.t

val nfree_blocks : t -> int io
(** The clear bits of the block bitmap. *)

(** {1 Inode operations} *)

val stat : t -> inum -> attrs io
val set_mode : t -> inum -> int -> unit io
val set_uid : t -> inum -> int -> unit io
val set_mtime : t -> inum -> int -> unit io

val read : t -> inum -> off:int -> len:int -> string io
(** Short read at EOF; [""] past EOF; [EISDIR] on directories.  A
    whole-file read ([off = 0], [len >= size]) returns the file's view:
    the very string an earlier whole read returned, as long as every
    block still holds it, whatever else was written since. *)

val write : t -> inum -> off:int -> string -> unit io
(** Extends the file as needed; sparse gaps read back as zeros.  Writes
    only the blocks whose bytes change, then the inode. *)

val truncate : t -> inum -> int -> unit io
(** Shrink (freeing blocks) or extend (zero-filled) to exactly [len].
    An extension, here or by a write past the end, first drops whatever
    an unjournaled write cut off before its inode write left past the
    old end: blocks mapped there, and bytes in the last block. *)

(** {1 Directory operations} *)

val dir_lookup : t -> inum -> string -> inum io
val dir_entries : t -> inum -> (string * inum * kind) list io

val create : t -> dir:inum -> string -> inum io
(** New empty regular file; [EEXIST] if the name is taken. *)

val mkdir : t -> dir:inum -> string -> inum io

val link : t -> dir:inum -> string -> inum -> unit io
(** Add a name for an existing inode (directories allowed — see above). *)

val unlink : t -> dir:inum -> string -> unit io
(** Remove a name for a non-directory; the inode and its blocks are freed
    when the last link goes. *)

val rmdir : t -> dir:inum -> string -> unit io
(** Remove a directory name.  Removing the {e last} link to a non-empty
    directory is [ENOTEMPTY]; removing one of several links is fine. *)

val rename : t -> sdir:inum -> sname:string -> ddir:inum -> dname:string -> unit io
(** An existing destination is replaced ([ENOTEMPTY] if it is a
    non-empty directory's last link); moving a directory to another
    directory at or under itself is [EINVAL].  Journaled, the rename is
    one transaction.  Unjournaled, a cut leaves the object under its
    old name, its new one, or both, and every name resolves to a
    complete version: within one directory the commit is one record
    (the destination's, retargeted in place, or the source's, renamed)
    and the drop of the source's record; across directories the
    destination's record is written before the source's goes.  The
    replaced inode is released last, so a cut before that leaks it or
    leaves a link count one short.  Every block write leaves whole
    records, so a cut loses no name; but when the two records of a
    same-directory rename sit in different blocks (or a new name does
    not fit the old record), a cut between the two block writes can
    leave the object under both names with a link count of 1. *)

(** {1 Maintenance} *)

val sync : t -> unit io
(** Make every completed operation durable.  Journaled: force the group
    commit (staged transactions are sealed into the log) and checkpoint
    (logged blocks are written home and the log empties) — after [sync]
    returns [Ok], a crash at any later point loses nothing done before
    it.  A journaled call returns [Ok] once its transaction is staged,
    even if the group-commit flush it set off failed on the device; that
    failure shows here, as fsync reports a writeback error, and the
    staged writes stay for the next flush.  Unjournaled: a no-op,
    because the write-through cache already put every completed
    operation on the device. *)

val journal_tick : t -> unit io
(** The clock-driven half of group commit: flush the staged
    transactions iff the oldest has waited at least the flush age.
    Driven alongside the propagation/reconciliation daemons (see
    [Cluster.tick_daemons]); a no-op when unjournaled. *)

val journal_pending : t -> bool
(** Is a group commit staged and waiting to age out?  While [false],
    {!journal_tick} is a no-op, so the cluster's ready-queue may skip
    this host's flush daemon.  Always [false] when unjournaled. *)

val journal_stats : t -> (string * int) list
(** Journal lifetime counters ({!Journal.stats}); [[]] when unjournaled. *)

val crash_reboot : t -> unit io
(** Simulate a power failure and reboot in place: drop the buffer cache
    and every volatile journal structure (staged commits are lost
    atomically), then replay the journal from the device exactly as a
    fresh {!mount} would.  Unjournaled: just the cold cache. *)

val check : t -> (unit, string) result
(** Cheap fsck: bitmaps (each block read once) vs. reachable
    blocks/inodes, link counts, and each directory block whose record
    chain does not end at its end, by number.  Used by property tests,
    {!val-crash_reboot} sweeps, and [Cluster.reboot]. *)

(** {1 Exposed for property tests}

    The directory format: whole blocks, each a chain of records
    [u32 inum | u16 record length | u8 kind (1 regular, 2 directory) |
    u8 namelen | name] whose lengths sum to exactly the block size.  A
    record longer than its [8 + namelen] bytes holds free space after
    its name; inum 0 marks a free record, which only a block's first
    record can be.  An empty directory holds no bytes. *)

val parse_dir : t -> string -> (string * inum * kind) list io
(** The live records of a directory image of this file system's block
    size, in order; [EIO] (as {!dir_lookup} answers such a directory)
    unless the image is whole blocks and every block's record chain ends
    exactly at its end. *)

val dir_image : t -> inum -> string io
(** A directory's data bytes, read as a lookup reads them. *)

val dir_index : t -> inum -> (string * inum) list io
(** The name index lookups answer from, sorted by name. *)
