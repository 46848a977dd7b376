(** Trace capture and replay.

    The Ficus design leans on trace-driven studies of Unix file usage
    (Floyd 1986, cited in §1) for its locality assumptions.  This layer
    is the tool for making such studies against any vnode stack: wrap a
    stack, run a workload, and every operation is appended to a trace;
    the trace can then be {e replayed} against a different stack — e.g.
    captured over a bare UFS and replayed over the full Ficus stack to
    compare I/O behaviour on identical operation sequences.

    Vnodes are identified by small integers assigned at first sight
    (the wrapped root is 0); lookup/create/mkdir events record the
    parent id, the name and the id assigned to the result, which is
    what makes the trace self-contained and replayable.  Every state
    change is recorded, [setattr] included, so a replay ends in the
    captured state; [fsync] and [inactive] are not.

    Unlike the other interposed layers this one is not built on
    {!Vnode.forward}: each event needs the operation's arguments and,
    for lookup/create/mkdir, a fresh id for the child.  A trace lives
    in memory only. *)

type event =
  | Lookup of int * string * int      (** parent, name, result id *)
  | Create of int * string * int
  | Mkdir of int * string * int
  | Remove of int * string
  | Rmdir of int * string
  | Rename of int * string * int * string
  | Link of int * int * string        (** directory, target, new name *)
  | Getattr of int
  | Setattr of int * Vnode.setattr     (** e.g. the truncation in
                                          {!Vnode.write_all} *)
  | Readdir of int
  | Read of int * int * int           (** vnode, offset, length *)
  | Write of int * int * int          (** vnode, offset, length; payload is
                                          synthesized deterministically on
                                          replay *)
  | Open of int
  | Close of int

type t
(** A trace being captured. *)

val create : unit -> t
val wrap : t -> Vnode.t -> Vnode.t
(** Start capturing below this point; the returned vnode is id 0. *)

val events : t -> event list
(** Captured events, in order.  Only successful operations are recorded
    (a failed lookup resolves no id and cannot be replayed). *)

val length : t -> int

type replay_stats = { applied : int; failed : int }

val replay : Vnode.t -> event list -> replay_stats
(** Re-apply a trace against a fresh stack.  Events whose ids cannot be
    resolved (because an earlier event failed on this stack) count as
    [failed]; replay always runs to the end. *)
