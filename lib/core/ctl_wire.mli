(** The wire formats of the physical layer's control replies (paper §2.3,
    §2.6): the services the vnode interface lacks travel as replies to
    {!Ctl_name}-encoded [lookup] names, and every byte of a reply is
    billed as wire traffic.  Each reply has one encoder (called by
    {!Physical}'s control path) and one decoder (called by {!Remote}),
    side by side here, so the format has one home.

    Decoders return [EIO] for a reply they cannot parse. *)

type version_info = {
  vi_kind : Aux_attrs.fkind;
  vi_vv : Version_vector.t;
  vi_size : int;
  vi_uid : int;
  vi_stored : bool;  (** false: entry known but contents not stored here *)
  vi_span : int;
      (** trace span of the last update applied to the replica (0 when
          untraced); lets a reconciling peer continue the update's
          timeline *)
  vi_summary : Version_vector.t option;
      (** directories only: the directory's subtree summary
          ({!Summary.own}); [None] for regular files.  Served to a peer it
          is trusted as an upper bound, and a reconciler whose own
          summary dominates it skips the whole subtree ({!Summary}
          states both roles). *)
}

type dir_versions = {
  dv_summary : Version_vector.t option;  (** the directory's subtree summary *)
  dv_filtered : Ids.file_id list option;
      (** [None]: the reply answers for every live child, and a child
          missing from [dv_children] is one the server could not
          describe.  [Some failed]: the request named a floor and the
          reply answers only for the children changed above it; [failed]
          lists the ones among them the server could not describe. *)
  dv_fdir : Fdir.t;
  dv_children : (Ids.file_id * version_info) list;
      (** version info for the live children, one batched RPC instead of a
          [getvv] per file; see {!Reconcile}. *)
}

(** {1 Replies} *)

val encode_version_info : version_info -> string
(** ["getvv"]: [kind=], [vv=], [size=], [uid=], [stored=], [span=] and,
    for directories, [summary=] lines. *)

val decode_version_info : string -> (version_info, Errno.t) result

val encode_file : version_info -> string -> string
(** ["readfile"]: the version info, a ["--"] line, then the raw
    contents. *)

val decode_file : string -> (version_info * string, Errno.t) result

val encode_chunk_map : version_info -> digest:string -> Chunking.chunk list -> string
(** ["getchunkmap"]: the version info plus a [digest=] line (whole-content
    MD5), a ["--"] line, then {!Chunking.encode_map}. *)

val decode_chunk_map :
  string -> (version_info * string * Chunking.chunk list, Errno.t) result

val encode_chunks : (string * string) list -> string
(** ["readchunks"]: per [(digest, body)], a [chunk=<digest> <len>] line,
    the [len] raw bytes and a newline. *)

val decode_chunks : string -> ((string * string) list, Errno.t) result
(** Every body is checked against its digest ([EIO] on mismatch), so a
    corrupt body is never assembled into a file. *)

val encode_dir_versions :
  summary:Version_vector.t option -> filtered:Ids.file_id list option -> fdir:string ->
  (Ids.file_id * version_info) list -> string
(** ["getdirvvs"]: [summary=], for a filtered reply a
    [filtered=<hex-fid>,…] line listing the failed children (empty when
    none failed), then the [fdir] bytes (an {!Fdir.encode} output: the
    server passes the DIR file it just read, as stored) framed by
    [fdir:]/[endfdir:] lines, then per child a [child=<hex-fid>] line
    followed by its {!encode_version_info} block.  The framing keeps
    payload bytes that look like markers from confusing the parser.  An
    unfiltered reply has no [filtered=] line. *)

val decode_dir_versions : string -> (dir_versions, Errno.t) result

val encode_resolve : Ids.file_id -> Aux_attrs.fkind -> string
(** ["resolve"]: [fid=] and [kind=] of the named entry. *)

val decode_resolve : string -> (Ids.file_id * Aux_attrs.fkind, Errno.t) result

val encode_peers : (Ids.replica_id * string) list -> string
(** ["peers"]: {!peers_to_string} and a newline. *)

val decode_peers : string -> ((Ids.replica_id * string) list, Errno.t) result

val encode_meta : Ids.volume_ref -> Ids.replica_id -> string
(** ["meta"]: [vref=] and [rid=] lines — also the head of the ["META"]
    file. *)

val decode_meta : string -> (Ids.volume_ref * Ids.replica_id, Errno.t) result

(** {1 Peer lists} *)

val peers_to_string : (Ids.replica_id * string) list -> string
(** ["<rid>@<host>,…"]: the peer list of the ["peers"] reply and of the
    ["META"] file. *)

val peers_of_string : string -> (Ids.replica_id * string) list option

val peer_of_string : string -> (Ids.replica_id * string) option
(** One ["<rid>@<host>"] element. *)
