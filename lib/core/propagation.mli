(** The update-propagation daemon (paper §3.2).

    One per host.  Receives update-notification datagrams for the volume
    replicas the host stores, parks them in the {!New_version_cache}, and
    on each {!run_once} pulls the new versions in:

    - regular files: the pull step shared with reconciliation
      ({!Delta.pull_file}) fetches contents + version vector from the
      origin replica, negotiating chunks against the local copy, and
      adopts them via the shadow-file atomic commit
      ({!Physical.install_file}); a concurrent local history is reported,
      never overwritten;
    - directories: fetch the origin's directory state and reconcile with
      {!Physical.merge_dir} ({!Delta.pull_dir}); entries materialized by
      the merge are queued for their own pulls.

    Propagation is an optimization, not a correctness mechanism: if the
    origin is unreachable, the entry is retried with exponential backoff
    and eventually abandoned to the periodic reconciliation protocol. *)

type t

val create :
  delay:int ->
  obs:Obs.t ->
  liveness:(string -> Gossip.liveness) ->
  clock:Clock.t ->
  host:string ->
  connect:Remote.connector ->
  local_replica:(Ids.volume_ref -> Physical.t option) ->
  unit -> t
(** [delay] is the minimum age before a cache entry is acted
    on — the "later, more convenient time"; larger delays batch bursty
    updates.  An entry gets at most 5 attempts.

    A pull that fails with [EUNREACHABLE] is requeued with exponential
    backoff plus jitter (other failures — typically ordering, a parent
    directory still in flight — retry immediately): after
    the [n]th failure the entry sleeps [2^n] ticks (capped at 64) plus
    up to that much jitter again, drawn from a PRNG seeded by a hash of
    [host], so every daemon jitters differently but deterministically.
    An entry older than 500 ticks is abandoned at its next failure
    regardless of attempts left.

    [liveness] is the gossip failure
    detector's verdict on a host name.  Pulls whose origin is [Suspect]
    or [Dead] are parked without an RPC (counted as
    ["prop.rpcs_skipped_dead"]) until the origin refutes the suspicion
    or the deadline abandons the entry to reconciliation, so a dead
    origin no longer burns the retry budget. *)

val on_notify : t -> Notify.event -> unit
(** Feed one notification (wire this to the host's datagram handler).
    Events for volumes this host has no replica of are ignored. *)

val run_once : t -> int
(** Process everything currently ready; returns the number of pulls
    attempted.  Never raises: per-entry failures are retried or dropped. *)

val pending : t -> int
val cache : t -> New_version_cache.t
val counters : t -> Counters.t
(** A view of [obs]'s registry ({!Obs.counters}): ["prop.pull.file"], ["prop.pull.dir"], ["prop.pull.delta"] (file
    pulls that travelled as chunk deltas), ["prop.bytes"] (every byte a
    pull put on the wire: file bodies, directory fetches, chunk maps and
    negotiation requests), ["prop.bytes_saved"] (remote file size the
    delta path did {e not} ship), ["prop.chunks_hit"] /
    ["prop.chunks_miss"] (map chunks resolved locally vs fetched),
    ["prop.delta_fallback"] (delta path degraded to a whole-file fetch:
    raced contents or failed verification),
    ["prop.skipped_dominated"] (pulls dropped with no RPC because the
    notification's version vector was already dominated locally),
    ["prop.uptodate_header"] (pulls answered by the chunk-map header
    alone), ["prop.nvc_deduped"] (notifications collapsed into pending
    entries), ["prop.conflicts"], ["prop.retries"],
    ["prop.backoff_ticks"] (cumulative sleep imposed by backoff),
    ["prop.abandoned"], ["prop.rpcs_skipped_dead"]. *)
