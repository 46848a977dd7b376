(** NFS client vnode layer.

    Exposes a remote export as a local vnode stack — this is how a Ficus
    logical layer talks to a physical layer on another host without
    either knowing the other is remote (paper §2.2: "any layer that uses
    a vnode interface can be unaware whether the immediately adjacent
    functional layers are local, or perhaps remote").

    Faithfully non-faithful, like the real thing:
    - [openv]/[closev] succeed locally and are {b never forwarded}
      (stateless protocol) — the reason for the {!Ctl_name} encoding;
    - attribute and name-lookup caches serve possibly-stale answers
      until a TTL expires, and there is no way for an upper layer to
      disable them ("not fully controllable", §2.2).  Set both TTLs to
      zero to model a cache-disabled mount. *)

type m
(** A client mount. *)

val mount :
  ?attr_ttl:int ->
  ?name_ttl:int ->
  obs:Obs.t ->
  Sim_net.t ->
  client:Sim_net.host_id ->
  server:Sim_net.host_id ->
  export:string ->
  (m, Errno.t) result
(** TTLs are in simulated clock ticks (both default to 30, matching
    SunOS's 3-second attribute cache at 10 ticks/s).  File blocks and
    directory listings are never cached: every [read] and [readdir] is
    an RPC, so replication experiments see every read.  Fails with
    [EUNREACHABLE] if the server cannot be reached, [ENOENT] for an
    unknown export.

    Up to 3 retransmissions follow an [EUNREACHABLE] RPC failure of an
    {e idempotent} request (reads, lookups, absolute-offset writes) —
    the real client's timeout/retransmit loop.  Namespace mutations
    (create, remove, rename…) are never retransmitted.  On [ESTALE] or
    a still-unreachable server, every cached attribute and name for the
    file handle involved is invalidated. *)

val root : m -> Vnode.t

val on_unreachable : m -> (unit -> unit) -> unit
(** Run the function whenever a call through this mount fails
    [EUNREACHABLE], after its retransmissions (the server's host is
    cut off or down).  Nothing runs by default. *)

val flush_caches : m -> unit
(** Drop the attribute and name caches (client reboot / explicit
    purge). *)

val counters : m -> Counters.t
(** A view of [obs]'s registry ({!Obs.counters}): ["nfs.client.calls"],
    ["nfs.client.bytes_out"], ["nfs.client.bytes_in"],
    ["nfs.client.attr_hits"], ["nfs.client.name_hits"],
    ["nfs.client.openclose_dropped"], ["nfs.client.retries"],
    ["nfs.client.backoff_ticks"] (modeled retransmission waiting),
    ["nfs.client.stale"]. *)
