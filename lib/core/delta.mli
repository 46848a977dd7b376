(** Delta fetch: pull a remote file by content-defined chunks.

    The client half of the chunk negotiation ({!Remote.fetch_chunk_map} /
    {!Remote.fetch_chunks}): fetch the origin's chunk map, diff it
    against the locally stored copy's map, fetch only the missing
    bodies, reassemble, and verify the whole-content digest end to end.
    Used by the propagation daemon and the reconciler; the caller still
    owns installation, so {!Physical.install_file}'s conflict detection
    and the shadow-swap atomicity are untouched. *)

type mode =
  | Delta     (** negotiated by chunks (or answered up-to-date by header) *)
  | Whole     (** no usable local copy: plain whole-file fetch *)
  | Fallback  (** delta path abandoned (pre-chunking peer, raced
                  contents, failed verification): whole-file fetch, with
                  the negotiation bytes already spent kept on the bill *)

type stats = {
  mode : mode;
  wire_bytes : int;   (** request names + response bodies, all RPCs *)
  saved_bytes : int;  (** remote file size minus [wire_bytes], floored at 0 *)
  chunks_hit : int;   (** map chunks resolved from the local copy *)
  chunks_miss : int;  (** map chunks whose bodies had to travel *)
}

type outcome =
  | Data of Physical.version_info * string
  | Up_to_date of Physical.version_info
      (** the chunk-map header showed the local history dominates: no
          contents travelled and nothing needs installing *)

val min_delta_size : int
(** Local copies smaller than this are not worth negotiating over. *)

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
