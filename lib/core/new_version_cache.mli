(** The new-version cache (paper §3.2).

    "A physical layer that receives an update notification makes an entry
    for the file in a new version cache.  An update propagation daemon
    consults this cache to see what new replica versions should be
    propagated in, and performs the propagation when it deems it
    appropriate to expend the effort."

    Entries are deduplicated per object: a burst of updates to one file
    collapses into a single pending pull, which is precisely why "delayed
    propagation may reduce the overall propagation cost when updates are
    bursty" (experiment E5). *)

type entry = {
  vref : Ids.volume_ref;
  fidpath : Ids.file_id list;
  fid : Ids.file_id;
  kind : Aux_attrs.fkind;
  origin_rid : Ids.replica_id;
  origin_host : string;
  span : int;            (** trace span of the newest absorbed update *)
  vv : Version_vector.t;
      (** merge of every absorbed notification's advertised version
          vector ([empty] when no notification carried one); the pull
          may be skipped only if the local history dominates this *)
  queued_at : int;       (** simulated time of first pending notification *)
  mutable attempts : int;
  mutable not_before : int;
      (** retry backoff: {!take_ready} skips the entry until the clock
          reaches this tick (0 = ready immediately) *)
}

type t

val create : unit -> t

val note : t -> Notify.event -> now:int -> bool
(** Record a notification.  A pending entry for the same object absorbs
    it — keeping the earliest [queued_at], adopting the newest origin and
    non-zero span, and merging the advertised version vectors — and
    [true] is returned (the collapse the ["prop.nvc_deduped"] counter
    tracks); [false] means a fresh entry was created. *)

val take_ready : t -> now:int -> min_age:int -> entry list
(** Remove and return entries that have been pending at least [min_age]
    ticks and whose [not_before] backoff has expired; [min_age] 0 means
    propagate eagerly. *)

val find : t -> Ids.volume_ref -> Ids.file_id list -> entry option
(** The pending entry for the object at this fid path, if any: a peer
    announced a version this host has not pulled yet (the logical layer
    polls its origin). *)

val note_held : t -> Notify.event -> now:int -> unit
(** Record that the event's origin installed a version of the object by
    reconciliation ({!Notify.Ficus_reconciled}) at tick [now]: nothing
    to pull, but the origin may hold a version this host has not heard
    of.  Kept apart from the pending pulls; one record per origin and
    object, the latest. *)

val holders : t -> Ids.volume_ref -> Ids.file_id list -> current:(Ids.replica_id -> at:int -> bool) -> Ids.replica_id list
(** The origins of the records {!note_held} keeps for the object at
    this fid path that [current] accepts; the others are forgotten. *)

val requeue : t -> entry -> unit
(** Put a failed entry back (e.g. origin unreachable); [attempts] and
    [not_before] are preserved so the daemon backs off between retries
    and can eventually give up and leave the work to reconciliation. *)

val peek : t -> entry list
(** Non-destructive view of every pending entry, oldest [queued_at]
    first — the health plane's staleness gauge reads the cache without
    disturbing the propagation daemon's backoff state. *)

val size : t -> int
