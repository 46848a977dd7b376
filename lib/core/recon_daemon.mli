(** The periodic reconciliation daemon.

    Paper §3.3: "This protocol is executed periodically to traverse an
    entire subgraph ... and reconcile the local replica against a remote
    replica."  One daemon per host; on each {!tick} past its period it
    reconciles every locally stored volume replica against the {e next}
    peer in round-robin rotation, so that over successive periods every
    pair is exercised and the whole replica set converges even when some
    peers are down at any given moment.

    Like the propagation daemon, it is driven explicitly (the simulation
    owns time): call {!tick} as the clock advances. *)

type t

val create :
  period:int ->
  obs:Obs.t ->
  liveness:(string -> Gossip.liveness) ->
  clock:Clock.t ->
  host:string ->
  connect:Remote.connector ->
  replicas:(unit -> (Ids.volume_ref * Physical.t) list) ->
  unit -> t
(** [period] (in ticks) is the interval between passes;
    [replicas] lists the volume replicas this host currently stores
    (re-read each pass, so dynamically added replicas join the
    rotation).  The daemon's {!counters} are a view of [obs]'s metrics
    registry ({!Obs.counters}), so they appear in cluster-wide
    snapshots.

    [liveness] reorders each pass so peers
    the gossip failure detector calls [Suspect] or [Dead] are tried
    after every healthy one; when a healthy peer then absorbs the pass,
    the doubtful peers it spared are counted in
    ["recon.skipped_doubtful"].  Doubtful peers are deprioritized, never
    excluded, so all-pairs convergence is preserved.

    Each pass follows the replica's own merge policy
    ({!Physical.set_merge_policy}). *)

val tick : t -> Reconcile.stats option
(** Run a pass if the period has elapsed; [None] when not yet due.
    An unreachable peer is skipped (counted in ["recon.skipped"]) and
    the pass fails over to the next peer in rotation order; only when
    {e every} peer is unreachable does the pass count an error. *)

val force : t -> Reconcile.stats
(** Run a pass now, regardless of the period. *)

val counters : t -> Counters.t
(** ["recon.passes"], ["recon.pairs"], ["recon.skipped"] (unreachable
    peers failed over), ["recon.skipped_doubtful"], ["recon.errors"]. *)

val next_due : t -> int
