(** Single-file atomic commit via shadow files (paper §3.2).

    Update propagation replaces a replica's contents wholesale.  To keep
    the old version available if the propagation is interrupted, the new
    contents are written to a {e shadow} file and then substituted for
    the original "by changing a low-level directory reference" — here the
    UFS [rename], the commit point.  A crash before the rename leaves the
    original untouched; recovery just discards the shadow.  The rename
    retargets the name's directory record in place, so a crash during it
    leaves the name on the old or the new version ({!Ufs.rename} gives
    the one exception, a record split across two blocks).

    The paper's footnote 5 notes the cost: updating a few bytes of a
    large file still rewrites the whole file (experiment E8). *)

val shadow_name : Ids.file_id -> string
(** [<hex>.shadow]. *)

val install : dir:Vnode.t -> Ids.file_id -> data:string -> (unit, Errno.t) result
(** Atomically replace (or create) the data file [<hex>] in [dir] with
    [data].  On failure the original contents are still intact; a partial
    shadow may remain and is removed by {!recover}. *)

val recover : dir:Vnode.t -> Ids.file_id -> unit
(** Discard a leftover shadow, if any (crash recovery). *)

(** {1 Records}

    A small file that must read back as either its old or its new
    contents, never a mixture, without a rename per update: the aux
    attribute files ({!Aux_attrs}) and the physical layer's [META].
    Each store rewrites the file's own inode, so a record hard-linked
    into several directories stays shared. *)

val record_size : int
(** 512 bytes, the fixed size of a record that fits in one block; the
    physical layer never runs on blocks smaller than that. *)

val store_record : dir:Vnode.t -> string -> string -> (unit, Errno.t) result
(** [store_record ~dir name payload] creates or replaces the record
    [name] in [dir].  The payload is framed with its length, offset and
    digest.  One that fits is padded to {!record_size} and overwritten in
    place ({!Vnode.overwrite}): the size never changes, so the data write
    is the commit and the only other write is the inode's.  A larger one
    is first written past the first block, clear of the live payload,
    and committed by rewriting the first block to point at it. *)

val load_record : dir:Vnode.t -> string -> (string, Errno.t) result
(** The payload of the record [name] in [dir]; [EIO] unless the header's
    length, offset and digest all check, so a torn, short or zeroed
    record is never read as another one. *)
