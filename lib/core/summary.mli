(** Subtree summary vectors: the one home of incremental
    reconciliation's pruning claim.

    A directory's summary covers the update {e events} this replica has
    incorporated anywhere in its subtree, keyed by originating replica.
    Events are numbered from the replica's uniquifier counter, so
    ["r:n"] says "every event of [r] numbered [<= n] is reflected here".
    It is the vector stored in the directory's aux file joined with the
    bump still pending in memory ({!own}).  The same vector has two
    roles, and only one of them tolerates a lost bump:

    - {b The puller's own summary is a lower bound.}  Claiming too
      little only makes the next pass walk more than it must.
    - {b A served summary is trusted as an upper bound.}  A puller whose
      own summary dominates it ({!prunes}) skips the whole subtree, so it
      must cover every update stored there.  A pending bump lost in a
      crash makes it under-claim, and the puller prunes updates it has
      never seen — an open bug (ROADMAP "Crash-lost summary bumps").

    Bumps are batched so mutators pay no extra I/O, and written
    ({!flush}) before a summary is served and before a directory's
    storage moves ({!before_move}).

    The same events feed an in-memory {e change index} that lets a
    server answer a [getdirvvs] for the children a puller has not seen:
    per directory fid, per child fid, the latest event that changed the
    child's version info or anything below it ({!note}, {!stamped}).
    The puller's side is its {!floor}: the server's component of its
    own summary of the directory, a lower bound. *)

type fidpath = Ids.file_id list

type t
(** One replica's pending bumps (per directory, the latest event noted
    there and not yet written to its aux file), its change index and,
    per peer, the passes it has completed against it since it attached.
    All volatile. *)

val create : since:int -> t
(** [since] is the first event number the replica issues after it
    attached: the change index covers events from there on. *)

(** What writing bumps needs from the replica that owns them. *)
type io = {
  rid : Ids.replica_id;  (** the component this replica's events bump *)
  counters : Counters.t;  (** bills [phys.summary.flush] *)
  persist_watermark : unit -> (unit, Errno.t) result;
      (** makes the event counter durable first, so no durable claim
          names an event number a reboot could reissue *)
  aux_dir : fidpath -> (Vnode.t * Ids.file_id, Errno.t) result;
      (** the UFS directory holding a directory's aux file, and its fid;
          [ENOENT] once it is gone *)
}

val note : t -> fidpath -> changed:Ids.file_id list -> seq:int -> unit
(** Record local event [seq] (larger than every event before it) at the
    directory at [fidpath]: it bumps that directory and every ancestor,
    so a dominating claim anywhere covers the whole subtree.  In the
    change index it stamps each ancestor's child on [fidpath] and, in
    the directory itself, the [changed] children: those whose version
    info the event changed (a create, a write, an install, either end of
    a move across directories).  An event that changes only the
    directory's [DIR] file (a rename within it, a merge, a removal)
    passes [[]]: a puller always receives the [DIR] whole. *)

val stamped : t -> dir:Ids.file_id -> floor:int option -> (Ids.file_id -> bool) option
(** The server's filter for a [getdirvvs] of directory [dir] carrying a
    puller's [floor]: [Some changed], where [changed child] holds for a
    child stamped above [floor], or [None] (answer every child) when
    the floor is absent or below [since] — events before the attach are
    not in the index. *)

val floor : t -> peer:Ids.replica_id -> Version_vector.t option -> int option
(** The floor a puller sends [peer] for a directory whose own summary is
    given: its [peer] component.  [None] when it is 0, and until {!passed}
    has recorded a walked pass against [peer] since the attach — so the
    first walk after a reboot re-reads every child and re-reports the
    file conflicts the volatile conflict log lost. *)

val passed : t -> peer:Ids.replica_id -> tick:int -> walked:bool -> unit
(** Record that a pass against [peer] completed at [tick]: it pruned at
    the root, or ([walked]) walked the volume without error.  Either
    way this replica then held every version [peer] stored, save those
    the pass logged as conflicting with its own. *)

val caught_up : t -> peer:Ids.replica_id -> since:int -> bool
(** A pass against [peer] completed at a tick later than [since].  A
    pass in the tick of [since] does not count: within one tick the
    order of the two is not recorded. *)

val own : t -> rid:Ids.replica_id -> fidpath -> Aux_attrs.t -> Version_vector.t
(** The summary of the directory at [fidpath], given its aux attributes. *)

val flush : t -> io -> (int, Errno.t) result
(** Write every pending bump into its aux file (a directory that is gone
    is skipped: its ancestors carry the claim); returns how many files
    changed.  A bump is dropped only once its store succeeds, so a flush
    that fails keeps the rest for the next one. *)

val before_move : t -> io -> Aux_attrs.fkind -> (unit, Errno.t) result
(** Call before moving the storage of a [kind] entry.  Pending bumps are
    filed by path and a directory's move carries its subtree's aux
    files away: flushed after it, they would find no directory and be
    dropped.  So a directory move flushes first; a file move does not. *)

val join : t -> io -> fidpath -> Version_vector.t -> (unit, Errno.t) result
(** Once a pass has {e fully} incorporated a peer's subtree at [fidpath]
    (no child failed), fold the peer's served summary and the pending
    bump into the stored vector.  Joins allocate no event, so quiescent
    replicas reach a fixpoint. *)

val prunes : own:Version_vector.t option -> served:Version_vector.t option -> bool
(** The prune test: the puller's [own] summary of a directory dominates
    (or equals) the one a peer [served], so nothing below it there is
    new.  [false] when either is missing. *)
