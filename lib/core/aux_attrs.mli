(** The auxiliary replication-attribute file (paper §2.6).

    Each Ficus file replica is stored as a UFS file; the
    replication-related attributes — foremost the version vector — live
    in a companion file named [<hex-fid>.aux] in the same UFS directory.
    (The paper notes these would go in the inode if the UFS could be
    modified; the extra inode+data I/O of the auxiliary file is exactly
    the overhead experiment E2 measures.) *)

type fkind = Freg | Fdir | Fgraft

type t = {
  kind : fkind;
  vv : Version_vector.t;       (** update history of this replica *)
  uid : int;                   (** owner, for conflict reporting *)
  conflict : bool;             (** an unresolved concurrent update was detected *)
  graft_target : Ids.volume_ref option;  (** for [Fgraft] entries only *)
  span : int;
      (** trace span of the last update applied to this replica (0 =
          untraced; absent in old encodings and decoded as 0).  Lets
          reconciliation attribute a pulled version to the update's
          original timeline. *)
  summary : Version_vector.t option;
      (** directories only: the stored part of the subtree summary
          vector, read and written only by {!Summary} (which states its
          two roles).  [None] for regular files and for a directory no
          summary has been written to yet. *)
  digest : string option;
      (** regular files: hex MD5 of the stored contents, recorded by the
          install path and {e cleared} by every local write (which goes
          through the version bump) — so a [Some] is never stale.  Served
          in the chunk-map header and checked by the delta puller after
          reassembly; [None] (old encodings, locally written files) makes
          the server recompute it from the contents. *)
}

val make : fkind -> t
(** Fresh attributes: empty version vector, uid 0, no conflict. *)

val encode : t -> string
val decode : string -> t option

val fields : string -> (string * string) list
(** The [key=value] lines of [s], in order; lines without ['='] are
    skipped.  The one field parser of aux files, ["META"] and the control
    replies ({!Ctl_wire}). *)

val kind_to_vtype : fkind -> Vnode.vtype
val kind_to_string : fkind -> string
val kind_of_string : string -> fkind option

(** {1 Vnode-mediated access}

    Read and write the aux file through the layer below — these are the
    charged I/Os. *)

val load : dir:Vnode.t -> Ids.file_id -> (t, Errno.t) result
(** Read and parse [<hex>.aux] in [dir]; [EIO] if its record does not
    check or does not parse. *)

val store : dir:Vnode.t -> Ids.file_id -> t -> (unit, Errno.t) result
(** Create or overwrite the aux file, as one {!Shadow.store_record}: a
    failure at any device write leaves the old or the new attributes,
    never neither. *)
