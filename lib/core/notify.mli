(** Update notification events (paper §2.5, §3.2).

    When a logical layer has a physical layer apply an update, "an
    asynchronous multicast datagram is sent to all available replicas
    informing them that a new version of a file may be obtained from the
    replica receiving the update."  In this reproduction the physical
    layer that applies an update emits one {!event}; the host runtime
    broadcasts it as best-effort datagrams.  Notifications are pure
    hints: losing every one of them only delays convergence until the
    next reconciliation pass. *)

type event = {
  vref : Ids.volume_ref;
  fidpath : Ids.file_id list;
      (** namespace fid-path of the updated object itself ([[]] means the
          volume root; for non-root objects the last element is [fid]).
          Lets the receiver locate its replica through the
          namespace-parallel on-disk layout, without a global fid index. *)
  fid : Ids.file_id;
  kind : Aux_attrs.fkind;
  origin_rid : Ids.replica_id;   (** replica holding the new version *)
  origin_host : string;          (** where to pull it from *)
  span : int;
      (** causal trace span of the originating update ({!Span.none} when
          the update was not traced); receivers thread it through the
          new-version cache into the propagation pull so the whole
          cross-host flow lands on one timeline *)
  vv : Version_vector.t;
      (** the origin replica's version vector for the updated file at
          notification time ([empty] for directory events, follow-up
          pulls and events from pre-delta origins).  A receiver whose own
          history already dominates a non-empty [vv] skips the pull
          outright — a duplicate or raced notification costs no RPC at
          all instead of a whole-file transfer that installs as
          up-to-date. *)
}

type Sim_net.payload += Ficus_notify of event

type Sim_net.payload += Ficus_reconciled of event
(** A version the origin installed by reconciliation (a file pulled, or
    a directory whose entries a merge changed), with its version
    vector.  Nothing is to be pulled: the event only tells a receiver
    that the origin may hold a version of the object it has not heard
    of, until it next completes a reconciliation pass from the origin
    ({!New_version_cache.note_held}). *)
