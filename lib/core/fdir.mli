(** Ficus directory files and the directory reconciliation merge
    (paper §2.6, §3.3; Guy & Popek, "Reconciling partially replicated
    name spaces", UCLA CSD-900010).

    A Ficus directory is stored as a UFS {e file} (named ["DIR"] in the
    directory's hex-named UFS directory), not a UFS directory.  Each
    entry maps a name to a Ficus file-id and carries a globally unique
    {e birth} stamp, so that independently created entries can never be
    confused.  Deleted entries become {e tombstones} rather than
    disappearing: reconciliation must be able to distinguish "deleted
    remotely" from "not yet created locally".

    Merging two directory replicas is an observed-remove set union:
    an entry is dead as soon as either side holds its tombstone, live if
    either side holds it live and no tombstone exists.  Directory updates
    made in different partitions therefore merge automatically — the
    "conflicting updates to directories are detected and automatically
    repaired" of the abstract.  Two {e different} files created under the
    same name in different partitions both survive; the collision is
    repaired deterministically at read time (the older birth keeps the
    plain name, later births read as [name#<replica>.<seq>]) and reported
    via the merge result so the owner can be told.

    Tombstones are garbage-collected with a two-phase scheme in the
    spirit of Wuu & Bernstein (PODC 1984): each tombstone records the
    directory version vector at deletion time ([death_vv]); the directory
    carries a gossiped [known] map from replica-id to the directory
    version vector that replica is known to have reached.  Once every
    replica's known vector dominates a tombstone's [death_vv], every
    replica has applied the deletion and the tombstone can never again be
    needed, so it is dropped. *)

module Kmap : Map.S with type key = Ids.replica_id
(** Sorted map keyed by replica id, used for the [known] knowledge map
    so the tombstone-GC dominance check stays logarithmic per lookup on
    wide replica sets. *)

type birth = { b_rid : Ids.replica_id; b_seq : int }
(** Globally unique entry identity: issuing volume replica and a
    per-replica sequence number (drawn from the same allocator as
    file-ids). *)

type status =
  | Live
  | Dead of { death_vv : Version_vector.t }

type entry = {
  name : string;   (** the name as created; collision repair is at read time *)
  fid : Ids.file_id;
  kind : Aux_attrs.fkind;
  birth : birth;
  status : status;
}

type t
(** A directory replica: every entry keyed by birth, tombstones included,
    plus indexes over the live entries by plain name and by fid, so that
    every name→entry and fid→entry step is a map lookup.  Immutable. *)

val empty : Ids.replica_id -> t
(** An empty directory at the given replica ([known] seeded with it). *)

val birth_compare : birth -> birth -> int

val vv : t -> Version_vector.t
(** The directory version vector. *)

val entries : t -> entry list
(** Every entry, tombstones included, in birth order (the [encode]
    order). *)

val live_count : t -> int
(** Number of live entries ([List.length (live t)], without building the
    view). *)

(** {1 Read-time view} *)

val live : t -> (string * entry) list
(** Live entries with their {e effective} names after deterministic
    collision repair, sorted by effective name.  Builds the whole view:
    O(n log n). *)

val find_live : t -> string -> entry option
(** Look up by effective name, in O(log n) without building the view. *)

val find_by_fid : t -> Ids.file_id -> entry option
(** The live entry of oldest birth for the file, if any (a file may have
    several names).  O(log n). *)

val live_fids : t -> entry list
(** Live entries deduplicated by fid, in effective-name order — the unit
    of per-child work during reconciliation. *)

val find_birth : t -> birth -> entry option
(** The entry of that birth, live or dead.  O(log n). *)

(** {1 Local updates}

    Each bumps the directory version vector at [rid]. *)

val add :
  t -> rid:Ids.replica_id -> name:string -> fid:Ids.file_id ->
  kind:Aux_attrs.fkind -> birth:birth -> (t, Errno.t) result
(** [EEXIST] if the effective name is taken, [EINVAL] for a malformed
    name or duplicate birth. *)

val kill : t -> rid:Ids.replica_id -> birth -> (t, Errno.t) result
(** Turn a live entry into a tombstone; [ENOENT] if absent or dead. *)

(** {1 Reconciliation merge} *)

type action =
  | Materialize of entry  (** newly live here: physical layer must create storage *)
  | Unmaterialize of entry  (** was live here, now dead: remove storage *)
  | Expire of entry       (** tombstone garbage-collected *)

type merge_result = {
  merged : t;
  actions : action list;
  new_collisions : (string * birth list) list;
      (** names that became collided by this merge — report to owner *)
}

val merge :
  ?may_expire:(entry -> bool) ->
  local_rid:Ids.replica_id ->
  remote_rid:Ids.replica_id ->
  peers:Ids.replica_id list ->
  t -> t -> merge_result
(** One-way pull: merge the remote replica's state into the local one.
    Idempotent; applying [merge a b] at A and [merge b a] at B leaves
    both with identical entries, vv and (eventually, after gossip)
    [known] maps.

    [may_expire] (default: always) is consulted before a fully-known
    tombstone is dropped; answering [false] defers the expiry to a later
    merge.  The CRDT directory-merge mode uses it to keep a dead
    directory's entry discoverable while its stored subtree still holds
    live entries awaiting tree repair — a deferred tombstone is still a
    tombstone, so replicas that expired it earlier re-converge on the
    next exchange. *)

(** {1 Serialization} *)

val encode : t -> string

val decode : string -> t option
(** [None] on a malformed file, including one that holds the same birth
    twice. *)

val pp_entry : Format.formatter -> entry -> unit
