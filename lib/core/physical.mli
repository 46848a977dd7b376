(** The Ficus physical layer (paper §2.6, §3).

    One [t] manages one {e volume replica}: a container directory in the
    host's UFS holding, in a layout that parallels the logical namespace,

    - per Ficus directory: a UFS directory named [<hex-fid>] containing a
      ["DIR"] file (the {!Fdir} directory file) and the children's storage;
    - per regular-file replica: a UFS file [<hex-fid>] plus an auxiliary
      attribute file [<hex-fid>.aux] ({!Aux_attrs}) beside it;
    - a ["META"] file with the replica's identity, peer list and the
      file-id allocator high-water mark;
    - an ["ORPHANS"] directory preserving victims of remove/update
      conflicts.

    The layer exports a plain vnode stack ({!root}) so it can sit under a
    logical layer directly or behind an NFS server, and {e overloads}
    [lookup] with encoded control requests ({!Ctl_name}) for the services
    the vnode interface lacks: open/close signalling, version-vector
    queries, whole-file fetch and directory-state fetch.  Lookup also
    accepts reserved ["@<hex>"] names, the dual name↔handle mapping by
    which the logical layer addresses files by Ficus file handle.

    Update installation ({!install_file}, {!merge_dir}) is a direct API:
    in the pull model every host's daemons write only to local replicas. *)

type t

type fidpath = Ids.file_id list
(** Path of file-ids from the volume root; [[]] is the root directory
    itself, and for files the last element is the file's own fid. *)

val path_fid : fidpath -> Ids.file_id
(** The fid a path names: its last element, or the root's. *)

(** {1 Lifecycle} *)

val create :
  obs:Obs.t ->
  container:Vnode.t -> clock:Clock.t -> host:string ->
  vref:Ids.volume_ref -> rid:Ids.replica_id ->
  peers:(Ids.replica_id * string) list -> unit -> (t, Errno.t) result
(** Initialize a fresh volume replica in [container] (an empty UFS
    directory).  [peers] must list every replica of the volume including
    this one with its host name.  [obs] is the observability bundle the
    layer reports into. *)

val attach :
  obs:Obs.t -> container:Vnode.t -> clock:Clock.t -> host:string -> unit -> (t, Errno.t) result
(** Mount an existing volume replica (e.g. after a simulated reboot);
    reads ["META"] and discards leftover shadow files. *)

val rid : t -> Ids.replica_id
val host : t -> string
val peers : t -> (Ids.replica_id * string) list
(** All replicas of the volume, including this one. *)

val set_peers : t -> (Ids.replica_id * string) list -> (unit, Errno.t) result
val counters : t -> Counters.t
(** The replica's [phys.*] counts, plus the [recon.*] bytes and RPCs
    {!Reconcile} and the [crdt.*] repairs {!Crdt_merge} charge to it.
    A view of [obs]'s registry ({!Obs.counters}). *)

val obs : t -> Obs.t
val clock : t -> Clock.t
val conflicts : t -> Conflict_log.t
val open_files : t -> int
(** Current opens minus closes seen by this layer (via [openv] or the
    encoded control path). *)

val set_notifier : t -> (Notify.event -> unit) -> unit
(** Called after every locally applied update; the host runtime turns
    events into best-effort datagrams to the peer replicas. *)

val set_recon_notifier : t -> (Notify.event -> unit) -> unit
(** Called for every version a reconciliation pass installs here, and
    every directory whose entries it merges in or out ({!reconciled}).
    Unlike an update, such a change is not notified by default: a host
    runtime whose peers track which replicas may hold a version they
    have not heard of sends these events as well. *)

val reconciled : t -> fidpath -> kind:Aux_attrs.fkind -> vv:Version_vector.t -> unit
(** Run the reconciliation notifier for the object at [fidpath]: [vv]
    is an installed file's version vector, empty for a directory
    ({!Reconcile} calls it). *)

val dir_merge_mode : t -> [ `Legacy | `Crdt ]
val resolver : t -> Resolver.t

val set_merge_policy : t -> dir_merge:[ `Legacy | `Crdt ] -> resolver:Resolver.t -> unit
(** The replica's merge policy, which every reconciliation pass into it
    follows.  [dir_merge] is the directory-merge discipline.  [`Legacy]
    (default) preserves the seed behavior: a directory tombstoned
    remotely while holding live content here is moved into the
    replica-local ["ORPHANS"] UFS directory.  [`Crdt] keeps such
    subtrees' storage in place behind the tombstone and lets the
    {!Crdt_merge} repair pass re-parent them into the replicated
    [lost+found] directory as joinable operations, so all replicas
    converge on the same repaired tree.  [resolver] (default
    [Owner_report], the paper's behavior: conflicts stay in the log for
    the owner) settles concurrent file updates after each active
    [`Crdt] pass.  The policy is volatile; re-apply it after
    {!attach}. *)

(** {1 The vnode stack} *)

val root : t -> Vnode.t

(** {1 Direct control interface (co-resident callers)} *)

type version_info = Ctl_wire.version_info = {
  vi_kind : Aux_attrs.fkind;
  vi_vv : Version_vector.t;
  vi_size : int;
  vi_uid : int;
  vi_stored : bool;
  vi_span : int;
  vi_summary : Version_vector.t option;
}
(** The fields are documented at {!Ctl_wire.version_info}, whose
    encoder carries them as the replies of the control path. *)

val get_version : t -> fidpath -> (version_info, Errno.t) result
val fetch_file : t -> fidpath -> (version_info * string, Errno.t) result
val fetch_dir : t -> fidpath -> (Fdir.t, Errno.t) result

val chunks_of_content : t -> fid:Ids.file_id -> string -> Chunking.chunk list
(** The content-defined chunk map of [contents], [fid]'s stored bytes,
    served from [fid]'s chunk-map slot (write-through from the install
    path).  A hit needs the slot's bytes to equal [contents], so a stale
    map is structurally impossible.  A miss derives the map from the
    slot's previous contents with {!Chunking.resplit} (counted by
    [phys.chunkmap.derived]), or splits the whole file when the fid has
    no mapped slot; [phys.chunkmap.hashed_bytes] counts the bytes
    digested either way.  The slot also carries the contents' whole
    digest, computed at most once, which the ["getchunkmap"] reply uses
    when the aux record has none (a locally written version).  The
    delta puller uses this for its {e local} copy; remote maps travel
    via the ["getchunkmap"] ctl op. *)

type install_outcome =
  | Installed       (** remote version adopted atomically *)
  | Up_to_date      (** local history already includes the remote one *)
  | Conflict of Version_vector.t
      (** concurrent histories: local kept, conflict logged; the value is
          the local version vector *)

val install_file :
  span:int -> via:string ->
  t -> fidpath -> vv:Version_vector.t -> uid:int -> data:Chunking.Content.t ->
  origin_rid:Ids.replica_id -> (install_outcome, Errno.t) result
(** Adopt a newer remote version of a regular file via shadow-file atomic
    commit.  The aux record stores [data]'s digest and the chunk-map slot
    takes [data] as is, so a digest and map a delta pull verified are
    adopted, not recomputed.  A concurrent history is never overwritten: it is reported
    ([Conflict]) with the remote version preserved in the log.  [span]
    attributes the install to the originating update's trace (recording
    shadow-swap and install events and the propagation-lag observation;
    {!Span.none} for none); [via] labels the install path (["prop"] or
    ["recon"]). *)

val force_install :
  t -> fidpath -> vv:Version_vector.t -> uid:int -> data:string ->
  (unit, Errno.t) result
(** Conflict resolution: install [data] (hashed once, as a whole-file
    install is) with the given (caller-computed, dominating) version vector, clear the conflict flag and emit an
    update notification. *)

val merge_dir :
  t -> fidpath -> remote_rid:Ids.replica_id -> Fdir.t -> (Fdir.merge_result, Errno.t) result
(** Reconcile the local directory replica at [fidpath] against remote
    state: OR-set entry merge, storage materialization for new entries,
    storage removal (with orphan preservation) for remote deletions, and
    tombstone GC.  Name collisions are auto-repaired and logged. *)

val make_graft_point :
  t -> parent:fidpath -> name:string -> target:Ids.volume_ref ->
  replicas:(Ids.replica_id * string) list -> (unit, Errno.t) result
(** Create a graft point (paper §4.3): a special directory whose entries
    are the ⟨volume replica, storage site⟩ pairs of the target volume —
    "overloading the directory concept" so the graft point is reconciled
    by the ordinary directory machinery. *)

val graft_point_info :
  t -> fidpath -> (Ids.volume_ref * (Ids.replica_id * string) list, Errno.t) result
(** Read a graft point's target volume and replica list. *)

val graft_entries_of_fdir :
  Fdir.t -> (Ids.volume_ref * (Ids.replica_id * string) list) option
(** Parse graft-point directory entries fetched from any replica (the
    logical layer autografts from remote graft points too). *)

val add_graft_replica :
  t -> fidpath -> Ids.replica_id -> string -> (unit, Errno.t) result
(** Record an additional volume replica in a graft point. *)

(** {1 Subtree summaries}: {!Summary.join} and {!Summary.flush} (also
    run before serving [getdirvvs]) on this replica's pending bumps, and
    the puller's side of the change index: {!Summary.floor} and
    {!Summary.passed}, stamped with this replica's clock.  A [getdirvvs]
    that names a floor is answered from {!Summary.stamped}.
    {!caught_up} is {!Summary.caught_up}: the logical layer's record of
    the peers a replica need not poll. *)

val join_summary : t -> fidpath -> Version_vector.t -> (unit, Errno.t) result
val flush_summaries : t -> (int, Errno.t) result
val recon_floor : t -> peer:Ids.replica_id -> Version_vector.t option -> int option
val recon_passed : t -> peer:Ids.replica_id -> walked:bool -> unit
val caught_up : t -> peer:Ids.replica_id -> since:int -> bool

(** {1 CRDT tree-repair primitives}

    Building blocks for the {!Crdt_merge} repair pass ([`Crdt] mode
    only).  Each repair is an ordinary joinable Fdir operation —
    tombstones and adds with deterministic, fid-derived identity — so
    replicas that repair independently still converge by merge. *)

val lost_found_fid : Ids.file_id
(** The reserved fid [(0,2)] of the conflict orphanage.  Issuer 0 is the
    reserved allocator the root fid (0,1) comes from, so no replica can
    mint a colliding fid, and every replica creating the orphanage
    independently creates the {e same} entry. *)

val lost_found_name : string

val walk_stored_dirs : t -> (fidpath -> Fdir.t -> unit) -> (unit, Errno.t) result
(** Visit every directory whose storage exists under the
    namespace-parallel layout — including directories reachable only
    through tombstoned entries — exactly once each, with its storage
    path and decoded directory file. *)

val demote_entry : t -> fidpath -> Fdir.birth -> (bool, Errno.t) result
(** Tombstone a live entry (a cycle-losing or duplicate link) of the
    directory stored at [fidpath].  Returns whether anything changed;
    already-dead entries are a no-op. *)

val attach_to_lost_found :
  t -> fid:Ids.file_id -> kind:Aux_attrs.fkind -> (bool, Errno.t) result
(** Re-parent an unplaced directory into [lost+found]: ensure the
    orphanage exists, add a live entry named [<hex-fid>] with the
    directory's own creation birth (both derived from the fid alone, so
    concurrent repairs at different replicas join cleanly), and move the
    directory's storage subtree underneath.  Returns whether anything
    changed. *)

(** {1 Maintenance} *)

val recover : t -> (int, Errno.t) result
(** Remove leftover shadow files after a crash; returns how many. *)

