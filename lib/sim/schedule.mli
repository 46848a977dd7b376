(** Cluster schedules as data: the one language experiments, tests and
    [ficusctl] use to script a {!Cluster} — updates at hosts,
    partitions, heals, ticks, reconciliation and reboots — with one
    interpreter, one printer and one replica-state view.

    Paths are slash-separated and resolved from the host's logical root
    with {!Namei.walk_parent}.  Fault injection ({!Cluster.sever},
    {!Cluster.set_flaky}, {!Cluster.set_faults}) and control operations
    ({!Cluster.add_replica}) stay direct {!Cluster} calls. *)

type step =
  | Create of int * string * string
      (** [Create (host, path, data)]: create the file, then write
          [data].  Issues no lookup of the final name, so a seeded
          fault stream sees exactly the create and the write. *)
  | Write of int * string * string
      (** [Write (host, path, data)]: look the name up, create it on
          [ENOENT], then replace its contents with [data]. *)
  | Mkdir of int * string
  | Remove of int * string
  | Rename of int * string * string  (** [Rename (host, src, dst)] *)
  | Partition of int list list  (** by host index groups *)
  | Heal
  | Tick of int  (** {!Cluster.tick_daemons} *)
  | Propagate  (** {!Cluster.run_propagation} *)
  | Converge of int  (** {!Cluster.converge} with this [max_rounds] *)
  | Reboot of int

type t
(** A driving state: the cluster, the volume, each host's cached
    logical root, and the work summed over [Tick] steps. *)

val start : Cluster.t -> Ids.volume_ref -> t

val root : t -> int -> (Vnode.t, Errno.t) result
(** Host [i]'s logical root, resolved ({!Cluster.logical_root}) on first
    use and again only after a [Reboot] of that host.  A step at a host
    whose root fails to resolve fails with that error.  Call it directly
    to resolve a root at a chosen point of the schedule. *)

val apply : t -> step -> (unit, Errno.t) result
(** Run one step.  [Converge] fails with [EAGAIN] when [max_rounds] is
    hit. *)

val run : t -> step list -> (unit, Errno.t) result
(** Run steps in order, stopping at the first that fails. *)

val run_all : t -> step list -> int
(** Run every step, best-effort; returns how many failed. *)

val pulls : t -> int
(** Propagation pulls summed over the [Tick] steps run so far. *)

val recon_errors : t -> int
(** Reconciliation errors summed over the [Tick] steps run so far. *)

val to_string : step list -> string
(** One line, e.g.
    [h0 create f "base"; propagate; converge 10; partition 0|1; heal]. *)

val state : Physical.t -> (Crdt_merge.entry list, Errno.t) result
(** The one replica-state view, {!Crdt_merge.state}: the live tree, root
    first, in effective-name order, each entry with its path, kind,
    version vector, stored bit and content digest. *)
