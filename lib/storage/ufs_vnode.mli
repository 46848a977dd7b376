(** Export a {!Ufs} as a stack of vnodes — the bottom layer of every
    Ficus stack (paper Figure 1).  Each vnode wraps a (file system, inode)
    pair; directory operations translate one-to-one to {!Ufs} calls. *)

type Vnode.vdata += Ufs_vnode of Ufs.t * Ufs.inum
(** Exposed so co-resident layers (and tests) can recognize UFS vnodes. *)

val root : Ufs.t -> Vnode.t
(** The vnode for the UFS root directory. *)
