(** Stateless NFS server: exposes one or more vnode stacks ("exports")
    over the simulated network.

    The server is generic over whatever stack it exports — a bare UFS, or
    a Ficus physical layer, exactly as in paper Figure 2 where the NFS
    server sits between the logical and physical layers.  File handles
    index a per-server table stamped with an epoch; {!restart} simulates
    a server reboot, after which every outstanding handle is [ESTALE]. *)

type t

val create : obs:Obs.t -> Sim_net.t -> host:Sim_net.host_id -> t
(** Create the server and register its RPC handler on [host].  [obs]
    receives the trace events of
    {!Nfs_proto.Traced} requests; the server re-establishes the caller's
    span context around the layers below it. *)

val add_export : t -> name:string -> Vnode.t -> unit
(** Export a stack root under [name]; replaces any previous export with
    the same name. *)

val restart : t -> unit
(** Forget every issued file handle (new epoch), as a stateless server
    does on reboot.  Exports survive — they are configuration. *)
