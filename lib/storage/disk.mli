(** Simulated block device.

    A fixed array of fixed-size blocks with precise I/O accounting: every
    [read]/[write] that reaches the device is one I/O, the unit in which
    the paper's §6 overhead numbers are stated.  Supports write-failure
    injection (for testing the shadow-file commit's crash safety) and a
    whole-device snapshot/restore (for simulating a host crash and
    reboot). *)

type t

val create :
  ?on_io:(unit -> unit) ->
  nblocks:int -> block_size:int -> unit -> t
(** Fresh device that reads as zeros.  A block takes no memory of its
    own until it is first written: every unwritten block shares one zero
    block that is never written through, and the first {!write} to a
    block installs a private copy.  [on_io], if given, is invoked once
    per device access — typically a closure advancing the simulated
    clock by the device's access time, which turns I/O counts into
    simulated latency. *)

val nblocks : t -> int
val block_size : t -> int

val read : t -> int -> (bytes, Errno.t) result
(** One device read.  Returns a private copy of the block.  [EINVAL] out
    of range. *)

val write : t -> int -> bytes -> (unit, Errno.t) result
(** One device write.  The buffer must be exactly [block_size] long. *)

val reads : t -> int
val writes : t -> int
val reset_stats : t -> unit

val fail_writes_after : t -> int -> unit
(** [fail_writes_after d n]: the next [n] writes succeed, every write
    after that fails with [EIO] until {!clear_failures} — models losing
    power mid-update. *)

val clear_failures : t -> unit

val snapshot : t -> bytes array
(** Copy of the current media contents (not the stats).  Unwritten blocks
    stay shared with the device's zero block, so the snapshot must not be
    mutated. *)

val restore : t -> bytes array -> unit
(** Reset media to a snapshot, as after a crash that lost nothing the
    device had acknowledged.  Copies every block the snapshot holds
    except the device's own zero block.  [Invalid_argument] unless the
    snapshot has [nblocks] blocks of [block_size] bytes. *)
