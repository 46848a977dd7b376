(** The system-call layer: a Unix-flavoured, path-and-descriptor API over
    any vnode stack.

    Paper Figure 1 puts "System Calls" at the top of the stack — "the
    Ficus logical layer presents its clients (normally the Unix system
    call family) with the abstraction that each file has only a single
    copy".  This module is that client: open/read/write/close with a
    file-descriptor table, plus the usual path calls.  It works over any
    root vnode — a bare UFS, a logical layer, an NFS mount — because the
    interface below is always the same.

    Descriptors carry their own offset ([read]/[write] advance it;
    [pread]/[pwrite] do not), and [openv]/[closev] are delivered to the
    stack so Ficus's whole-file concurrency control and open/close
    accounting engage. *)

type t
(** A "process": a root vnode plus a descriptor table. *)

type fd = int

val create : root:Vnode.t -> t

type open_mode = O_rdonly | O_wronly | O_rdwr

val openf : t -> ?create:bool -> ?trunc:bool -> string -> open_mode -> (fd, Errno.t) result
(** [EMFILE]-style table exhaustion is reported as [ENFILE]. *)

val close : t -> fd -> (unit, Errno.t) result
val read : t -> fd -> int -> (string, Errno.t) result
(** Read up to [n] bytes at the descriptor offset, advancing it. *)

val write : t -> fd -> string -> (unit, Errno.t) result
val pread : t -> fd -> off:int -> len:int -> (string, Errno.t) result
val pwrite : t -> fd -> off:int -> string -> (unit, Errno.t) result
val lseek : t -> fd -> int -> (unit, Errno.t) result

val stat : t -> string -> (Vnode.attrs, Errno.t) result
val mkdir : t -> string -> (unit, Errno.t) result
val unlink : t -> string -> (unit, Errno.t) result
val rmdir : t -> string -> (unit, Errno.t) result
val rename : t -> string -> string -> (unit, Errno.t) result
val link : t -> string -> string -> (unit, Errno.t) result
(** [link existing new_path]. *)

val readdir : t -> string -> (string list, Errno.t) result

val read_file : t -> string -> (string, Errno.t) result
(** Whole-file convenience read. *)

val write_file : t -> string -> string -> (unit, Errno.t) result
(** Create-or-truncate convenience write. *)

val open_fds : t -> int
