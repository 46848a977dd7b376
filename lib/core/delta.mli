(** The pull step shared by update propagation and reconciliation.

    Both daemons end the same way for a regular file (paper §3.2, §3.3):
    compare version vectors, fetch the newer version, commit it through
    the shadow file.  {!pull_file} is that one step; {!pull_dir} is its
    directory counterpart (fetch the peer's directory, merge it).

    The fetch is the client half of the chunk negotiation
    ({!Remote.fetch_chunk_map} / {!Remote.fetch_chunks}): fetch the
    origin's chunk map, diff it against the locally stored copy's map,
    fetch only the missing bodies, reassemble, and verify the
    whole-content digest end to end.  Installation stays with
    {!Physical.install_file}, so its conflict detection and the
    shadow-swap atomicity are untouched. *)

type mode =
  | Delta     (** negotiated by chunks (or answered up-to-date by header) *)
  | Whole     (** no usable local copy: plain whole-file fetch *)
  | Fallback  (** delta path abandoned (contents raced ahead of the
                  served map, or reassembly failed verification):
                  whole-file fetch, with the negotiation bytes already
                  spent kept on the bill *)

type stats = {
  mode : mode;
  wire_bytes : int;   (** request names + response bodies, all RPCs *)
  saved_bytes : int;  (** remote file size minus [wire_bytes], floored at 0 *)
  chunks_hit : int;   (** map chunks resolved from the local copy *)
  chunks_miss : int;  (** map chunks whose bodies had to travel *)
}

type outcome =
  | Data of Physical.version_info * Chunking.Content.t
      (** the version's bytes; after a delta pull they carry the
          verified whole digest and the origin's chunk map *)
  | Up_to_date of Physical.version_info
      (** the chunk-map header showed the local history dominates: no
          contents travelled and nothing needs installing *)

val fetch_whole :
  obs:Obs.t -> Vnode.t -> Physical.fidpath -> (outcome * stats, Errno.t) result
(** The plain whole-file fetch ([Whole] mode): the path {!fetch_file}
    takes without a usable local copy, and the whole-copy propagation
    baseline. *)

val fetch_file :
  local:Physical.t ->
  remote_root:Vnode.t ->
  Physical.fidpath ->
  (outcome * stats, Errno.t) result
(** Delta-or-whole fetch; nothing is installed. *)

type pull =
  | Current  (** the local history already includes [remote_vv]: no RPC *)
  | Fetched of stats * (Physical.install_outcome option, Errno.t) result
      (** the fetch's bill — kept even when the install fails — and the
          install ([None]: the chunk-map header showed us current) *)

val pull_file :
  ?whole:bool ->
  ?span:int ->
  ?detail:bool ->
  via:string ->
  local:Physical.t ->
  connect:(unit -> (Vnode.t, Errno.t) result) ->
  origin_rid:Ids.replica_id ->
  ?remote_vv:Version_vector.t ->
  Physical.fidpath ->
  (pull, Errno.t) result
(** Decide, fetch, install one regular file into [local].  Decide: a
    stored local copy whose history includes [remote_vv] ends the pull
    before [connect]; without [remote_vv] the pull always travels.
    Fetch: {!fetch_file}, or {!fetch_whole} when [whole].  Install:
    {!Physical.install_file} labelled [via], attributed to [span]
    (default: the span stored with the version) after a ["<via>:pull"]
    event.  [detail] labels a chunk-negotiated pull ["<via>:pull-delta"]
    and runs the install inside the span's context, so the journal's
    group commit joins the timeline.  Counting is the caller's. *)

val pull_dir :
  local:Physical.t ->
  remote_root:Vnode.t ->
  remote_rid:Ids.replica_id ->
  Physical.fidpath ->
  (Fdir.merge_result * int, Errno.t) result
(** Fetch the peer's directory and {!Physical.merge_dir} it; the wire
    bytes come back only with a successful merge. *)
