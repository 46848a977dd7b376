(** Ficus identifiers (paper §4.2).

    A volume is named by ⟨allocator-id, volume-id⟩; a volume replica adds
    a replica-id.  Within a volume, a logical file is named by a file-id,
    which is itself ⟨issuing-replica-id, unique-id⟩ so replicas can issue
    ids independently; a file replica is a file-id plus the containing
    volume replica's replica-id.  The fully specified form
    ⟨allocator-id, volume-id, file-id, replica-id⟩ is unique across all
    Ficus hosts in existence. *)

type allocator_id = int
type volume_id = int

type replica_id = int
(** Volume-replica identifiers; these also index version vectors. *)

type file_id = { issuer : replica_id; uniq : int }
(** Unique within its volume: [issuer] stamped by the volume replica that
    created the file. *)

type volume_ref = { alloc : allocator_id; vol : volume_id }

type replica_ref = { vref : volume_ref; rid : replica_id }

type handle = { volume : volume_ref; file : file_id; replica : replica_id }
(** Fully specified file-replica identifier. *)

val root_fid : file_id
(** Every volume replica stores the volume root directory; by convention
    it is file ⟨0,1⟩. *)

val fid_equal : file_id -> file_id -> bool
val fid_compare : file_id -> file_id -> int
val vref_equal : volume_ref -> volume_ref -> bool

val vref_to_string : volume_ref -> string
(** ["alloc.vol"], the form every on-disk and wire field carries. *)

val vref_of_string : string -> volume_ref option

val fid_to_hex : file_id -> string
(** The dual mapping (paper §2.6): a file-id as the 17-character
    hexadecimal UFS name ["xxxxxxxx.xxxxxxxx"] under which the replica's
    storage lives. *)

val add_fid_hex : Buffer.t -> file_id -> unit
(** Appends {!fid_to_hex}'s bytes to the buffer, building no string. *)

val fid_of_hex : string -> file_id option

val fid_to_at_name : file_id -> string
(** ["@xxxxxxxx.xxxxxxxx"]: the reserved lookup-name form in which the
    logical layer passes a file handle to a physical layer through the
    unmodified vnode [lookup] operation. *)

val fid_of_at_name : string -> file_id option

val fidpath_to_string : file_id list -> string
val fidpath_of_string : string -> file_id list option
(** A path of file-ids from the volume root (excluding the root itself),
    used to locate a replica's storage through the namespace-parallel
    on-disk layout; slash-separated hex. *)

val aux_name : file_id -> string
(** Name of the auxiliary replication-attribute file: [hex ^ ".aux"]. *)

val pp_fid : Format.formatter -> file_id -> unit
val pp_vref : Format.formatter -> volume_ref -> unit
