(** Client-side helpers for talking to a (possibly remote) physical layer
    {e exclusively through the vnode interface}.

    The logical layer, the propagation daemon and the reconciliation
    protocol never get a [Physical.t] for a remote replica — they hold
    only a root vnode, which may be the physical layer directly
    (co-resident) or an NFS client mount of it (paper Figure 2).  All the
    services the vnode interface lacks travel as {!Ctl_name}-encoded
    [lookup] names; this module issues the calls, and {!Ctl_wire} holds
    the reply formats.

    Every control call takes the caller's [~obs], whose [ctl_serial]
    numbers the request names, so each cluster counts its own (see
    {!Obs.t}). *)

type connector =
  host:string -> vref:Ids.volume_ref -> rid:Ids.replica_id -> (Vnode.t, Errno.t) result
(** How a host obtains the root vnode of some volume replica.  The
    simulation supplies one that returns the local physical root
    co-resident replicas and an NFS mount otherwise. *)

val walk : Vnode.t -> Physical.fidpath -> (Vnode.t, Errno.t) result
(** Resolve a fid path from a physical root by repeated ["@hex"]
    handle-lookups. *)

val get_version :
  obs:Obs.t -> Vnode.t -> Physical.fidpath -> (Physical.version_info, Errno.t) result

(** The fetches below also return the bytes the exchange put on the wire
    (request name + response body), for honest transfer accounting. *)

val fetch_file :
  obs:Obs.t -> Vnode.t -> Physical.fidpath ->
  (Physical.version_info * string * int, Errno.t) result

val fetch_dir : obs:Obs.t -> Vnode.t -> Physical.fidpath -> (Fdir.t * int, Errno.t) result

(** {1 Delta negotiation}

    The chunk protocol is pull-shaped to fit the 255-byte ctl-name
    budget: the puller cannot enumerate the digests it holds in one
    request name, so instead it fetches the origin's (compact) chunk
    map, diffs it against its own locally computed map, and batch-fetches
    only the missing bodies a handful of digests per request. *)

val fetch_chunk_map :
  obs:Obs.t -> Vnode.t -> Physical.fidpath ->
  (Physical.version_info * string * Chunking.chunk list * int, Errno.t) result
(** The ["getchunkmap"] ctl op: version info, whole-content MD5 (the
    puller's end-to-end check after reassembly) and content-defined chunk
    map, plus wire bytes. *)

val fetch_chunks :
  obs:Obs.t -> Vnode.t -> Physical.fidpath -> string list ->
  ((string, string) Hashtbl.t * int, Errno.t) result
(** Fetch the bodies of the listed chunk digests via batched
    ["readchunks"] calls; returns digest → body plus total wire bytes.
    Every body is digest-verified before it is returned ([EIO] on
    mismatch); [EAGAIN] means the origin's contents changed since the
    map was served — fall back to a whole-file fetch. *)

val fetch_dir_versions :
  obs:Obs.t -> Vnode.t -> Physical.fidpath -> floor:int option ->
  (Ctl_wire.dir_versions * int, Errno.t) result
(** Batched ["getdirvvs"] fetch: a directory's summary, fdir and child
    version infos in a single round trip, plus wire bytes.  With a
    [floor] ({!Summary.floor}) the server may answer only for the
    children changed above it ({!Ctl_wire.dir_versions}). *)

val resolve :
  obs:Obs.t -> Vnode.t -> string -> (Ids.file_id * Aux_attrs.fkind, Errno.t) result
(** Name-to-handle translation in a directory vnode: the mapping the
    logical layer performs for every pathname component (paper §2.5). *)

val peers : obs:Obs.t -> Vnode.t -> ((Ids.replica_id * string) list, Errno.t) result
val meta : obs:Obs.t -> Vnode.t -> (Ids.volume_ref * Ids.replica_id, Errno.t) result

val stats : obs:Obs.t -> Vnode.t -> (string, Errno.t) result
(** Fetch the observability snapshot (metrics + span timelines) through
    the [".#ficus#stats"] ctl-name — the paper's encoded-lookup trick
    carrying a service the vnode interface never anticipated. *)

val send_open :
  obs:Obs.t -> Vnode.t -> Ids.file_id option -> Vnode.open_flag -> (unit, Errno.t) result
(** Deliver an open to the physical layer through the encoded-lookup
    channel, surviving NFS's open/close suppression (paper §2.3). *)

val send_close : obs:Obs.t -> Vnode.t -> Ids.file_id option -> (unit, Errno.t) result
