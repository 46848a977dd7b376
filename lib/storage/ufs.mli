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

    Formatting with [~journal_blocks] reserves a write-ahead journal
    region at the tail of the disk and turns every mutating operation
    into a transaction: its block writes buffer in memory, group commit
    seals batches of transactions into the log (amortizing the paper's
    one-I/O-per-metadata-touch cost), a checkpoint later writes them
    home, and {!mount} replays sealed batches after a crash.  See
    {!Journal} for the protocol and DESIGN.md for the on-disk format.

    A write epoch lasts until the next block write, aborted transaction,
    or block-cache write or invalidation ({!Block_cache.version}).
    Decoded inodes and whole-file reads are kept for one epoch; a parsed
    directory is reused as it stands within the epoch it was checked in,
    and after a byte comparison in later ones.  A read answered from them
    still makes every block access the decoding read makes, in the same
    order, so cache hits, misses and device I/O counts do not depend on
    them. *)

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
    [capacity], with its default); cached whole-file reads share a
    budget of that many blocks. *)

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

(** {1 Inode operations} *)

val stat : t -> inum -> attrs io
val set_mode : t -> inum -> int -> unit io
val set_uid : t -> inum -> int -> unit io
val set_mtime : t -> inum -> int -> unit io

val read : t -> inum -> off:int -> len:int -> string io
(** Short read at EOF; [""] past EOF; [EISDIR] on directories.  A
    whole-file read ([off = 0], [len >= size]) in the write epoch of an
    earlier one returns the very string that one returned. *)

val write : t -> inum -> off:int -> string -> unit io
(** Extends the file as needed; sparse gaps read back as zeros. *)

val truncate : t -> inum -> int -> unit io
(** Shrink (freeing blocks) or extend (zero-filled) to exactly [len]. *)

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
(** Atomic within the file system.  An existing destination is replaced
    ([ENOTEMPTY] if it is a non-empty directory's last link). *)

(** {1 Maintenance} *)

val sync : t -> unit io
(** Make every completed operation durable.  Journaled: force the group
    commit (staged transactions are sealed into the log) and checkpoint
    (logged blocks are written home and the log empties) — after [sync]
    returns [Ok], a crash at any later point loses nothing done before
    it.  Unjournaled: a no-op, because the write-through cache already
    put every completed operation on the device. *)

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
(** Cheap fsck: bitmap vs. reachable blocks/inodes, link counts.  Used by
    property tests, {!val-crash_reboot} sweeps, and [Cluster.reboot]. *)

(** {1 Wire formats}

    Exposed for property tests: the packed directory encoding (u32 inum,
    u8 kind, u8 namelen, name bytes per entry, zero-inum terminator).
    [serialize_dir] emits the 6-byte terminator itself.
    [parse_dir] tolerates a torn suffix — a record cut off mid-append
    parses as exactly the preceding complete entries. *)

val serialize_dir : (string * inum * kind) list -> string
val parse_dir : string -> (string * inum * kind) list
