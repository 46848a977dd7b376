(** The stackable vnode interface.

    This is the Ficus reproduction's rendition of the SunOS vnode
    interface (Kleiman 1986): a fixed set of file operations behind which
    any file system — or any {e layer} over another file system — can sit.
    The interface is symmetric, which is what makes layers stackable: a
    module exports exactly the interface it imports from the layer below
    (paper §2.1).

    A vnode is a record of closures over the implementing layer's private
    state, plus a [data] field carrying an extensible-variant witness.
    The closures give each layer complete freedom in representation; the
    [data] field lets a layer recognize {e its own} vnodes when an
    operation receives a sibling vnode as an argument (e.g. [rename]'s
    destination directory). *)

type vtype =
  | VREG    (** regular file *)
  | VDIR    (** directory *)
  | VGRAFT  (** Ficus graft point (paper §4.3): a special directory kind *)
  | VCTL    (** synthetic control vnode returned by an overloaded lookup *)

type attrs = {
  kind : vtype;
  size : int;          (** bytes for VREG/VCTL; entry payload size for VDIR *)
  nlink : int;         (** number of names referring to the object *)
  mtime : int;         (** simulated-clock timestamp of last modification *)
  mode : int;          (** permission bits, advisory in the simulation *)
  uid : int;           (** owning user, used for conflict reporting *)
  gen : int;           (** generation number; distinguishes reused slots *)
}

type setattr = {
  set_size : int option;   (** truncate/extend to this many bytes *)
  set_mtime : int option;
  set_mode : int option;
  set_uid : int option;
}

val setattr_none : setattr
(** A [setattr] that changes nothing; override fields as needed. *)

type dirent = { entry_name : string; entry_kind : vtype }

type open_flag = Read_only | Write_only | Read_write

(** Extensible per-layer private data.  Each layer declares
    [type Vnode.vdata += Mine of state] and matches on it to recognize its
    own vnodes. *)
type vdata = ..

type vdata += No_data

type 'a io = ('a, Errno.t) result
(** Every vnode operation returns [Ok] or an {!Errno.t}. *)

type t = {
  data : vdata;
  getattr : unit -> attrs io;
  setattr : setattr -> unit io;
  lookup : string -> t io;
    (** [lookup name] resolves one component in a directory vnode.  Layers
        may {e overload} this operation with encoded requests (paper
        §2.3); see {!Ctl_name}. *)
  create : string -> t io;
    (** Create a regular file; [EEXIST] if the name is taken. *)
  mkdir : string -> t io;
  remove : string -> unit io;
    (** Remove a non-directory name. *)
  rmdir : string -> unit io;
  rename : string -> t -> string -> unit io;
    (** [v.rename src dst_dir dst] moves [src] from directory [v] to name
        [dst] in [dst_dir].  [dst_dir] must belong to the same layer. *)
  link : t -> string -> unit io;
    (** [v.link target name] adds [name] in directory [v] for [target]. *)
  readdir : unit -> dirent list io;
  read : off:int -> len:int -> string io;
    (** Short reads at end of file; [""] at or past EOF. *)
  write : off:int -> string -> unit io;
    (** Writes extend the file as needed; a gap reads back as zeros. *)
  openv : open_flag -> unit io;
    (** Not preserved by NFS (paper §2.2) — hence the overloaded-lookup
        encoding that Ficus uses instead. *)
  closev : unit -> unit io;
  fsync : unit -> unit io;
  inactive : unit -> unit io;
    (** Hint that the vnode is no longer referenced; layers may release
        caches or prune grafts. *)
}

val not_supported : vdata -> t
(** A vnode whose every operation fails with [ENOTSUP]; build real vnodes
    by functional update of this record so unimplemented operations fail
    cleanly rather than being forgotten. *)

(** {1 Interposing a layer} *)

type around = { around : 'a. string -> (unit -> 'a io) -> 'a io }
(** What an interposed layer does around each forwarded operation:
    [around name op] must run [op] (the call into the layer below) at
    most once and may observe, time or refuse it.  [name] is the
    operation's name: the field name, except ["open"] and ["close"] for
    [openv] and [closev]. *)

val transparent : around
(** Runs every operation unchanged. *)

val forward :
  hook:around -> data:vdata -> wrap:(t -> t) -> unwrap:(t -> t io) -> t -> t
(** [forward ~hook ~data ~wrap ~unwrap lower] is a vnode carrying [data]
    whose every operation runs the same operation of [lower] through
    [hook] — the whole interface an interposed layer imports, exported
    again (paper §2.1).  A vnode [lookup], [create] or [mkdir] returns
    comes back up through [wrap] (normally the layer's own constructor,
    so the subtree stays inside the layer); the sibling vnode [rename]
    and [link] receive goes down through [unwrap], inside [hook], and an
    [Error] from it fails the operation.  A layer that changes some
    operations overrides them by functional update of the result. *)

val is_dir : t -> bool io
(** Convenience: [getattr] and test for [VDIR] or [VGRAFT]. *)

val read_all : t -> string io
(** Read an entire regular file through the vnode interface. *)

val write_all : t -> string -> unit io
(** Truncate to zero then write the full contents. *)

val overwrite : t -> string -> unit io
(** Replace the contents in place: write them at offset 0, then trim the
    file to their length.  A rewrite of the same length allocates and
    frees no block.  A non-empty file that grows is first extended to the
    new length, so an interrupted write leaves the old bytes followed by
    zeros, never the new bytes cut at the old length; a shrinking one
    holds the new bytes over its old length until the trim.  The storage
    writers' replace; a client's {!write_all} truncates first. *)
