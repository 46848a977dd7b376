(** The deterministic synthetic workload: Zipfian per-user traces.

    The paper leans on Floyd's (1986) observation that general-purpose
    Unix file usage shows strong reference {e locality}: the
    namespace-parallel on-disk layout exploits it, and the case for
    optimism (conflicts are rare) rests on it.  Each user owns a
    private working set ([u<i>/f0 .. f<files-1>]) and accesses it with
    Zipfian skew; operations mix reads, writes, renames and mkdirs by
    integer weights.  The trace is an infinite lazy sequence, so
    millions of ops stream through {!replay} without ever being
    materialized, and it is a pure function of the seed, which is what
    makes a cluster replay reproducible bit-for-bit.  E7, A4, SCALE,
    [ficusctl] and perfbench all replay it. *)

type op_kind = Read | Write | Rename | Mkdir

type mix = {
  read_w : int;
  write_w : int;
  rename_w : int;
  mkdir_w : int;  (** integer op-mix weights; only ratios matter *)
}

type trace_config = {
  t_seed : int;
  t_users : int;       (** independent users, each with a private dir *)
  t_files : int;       (** working-set size per user *)
  t_zipf_s : float;    (** skew of file choice within a working set *)
  t_payload : int;     (** bytes per write *)
  t_mix : mix;
  t_mkdirs : int;      (** scratch dirs per user; mkdir targets cycle *)
}

val default_trace : trace_config
(** 32 users x 64 files, [zipf_s = 1.1], 70/24/4/2 read/write/rename/mkdir. *)

type op = { op_user : int; op_kind : op_kind; op_rank : int }
(** [op_rank] is the Zipf rank within the user's working set (also drawn
    for mkdir ops, keeping the stream's PRNG consumption uniform). *)

val trace : trace_config -> op Seq.t
(** The infinite op stream.  Deterministic from [t_seed]: every call
    returns a sequence that yields the identical stream.  Nodes are not
    memoized (draws happen at forcing time), so iterate a given sequence
    once, front to back. *)

val setup_trace : Vnode.t -> trace_config -> (unit, Errno.t) result
(** Create every user's directory and initial working-set files under
    one (logical) root. *)

type trace_stats = {
  tr_reads : int;
  tr_writes : int;
  tr_renames : int;
  tr_mkdirs : int;
  tr_errors : int;
}

val replay :
  root_for:(int -> Vnode.t) ->
  ?batch:int ->
  ?on_batch:(int -> unit) ->
  trace_config -> ops:int -> trace_stats
(** Stream [ops] operations from {!trace} against live roots —
    [root_for u] maps each user to the (logical) root serving it, so
    users can be spread across a cluster's hosts.  Tracks each file's
    current name across renames (f<r> <-> g<r>), cycles mkdir targets,
    and caches one directory vnode per user.  [on_batch] (with
    [batch > 0]) is called after every [batch] completed ops — the hook
    where a cluster replay pumps its daemons.  Individual op failures
    are counted, not raised. *)

val zipf_sampler : n:int -> s:float -> Random.State.t -> unit -> int
(** Zipf(s) over ranks [0..n-1] by inverse-CDF on precomputed cumulative
    weights ([s = 0] is uniform).  Exposed for the distribution sanity
    test. *)
