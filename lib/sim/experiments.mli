(** The experiment drivers behind `bench/main.exe`: one per reproduced
    paper claim (see DESIGN.md §4 and EXPERIMENTS.md).  Each prints a
    table and returns a machine-checkable verdict used by the test suite
    and the benchmark harness. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Obj of (string * value) list
  | List of value list
(** A JSON value: the shape of the numbers an experiment exports. *)

type verdict = {
  experiment : string;
  claim : string;     (** the paper's statement being reproduced *)
  holds : bool;       (** whether the measured shape matches *)
  detail : string;    (** the measured numbers, one line *)
  metrics : (string * value) list;
      (** the numbers [bench --json] exports, as envelope key -> value
          ([[]] for most experiments); the keys are exactly {!schema}'s *)
}

type epoch_totals = { reads : int; writes : int; errors : int; conflicts : int }

val epoch_trace : write_fraction:float -> seed:int -> Workload.trace_config
(** One user's working set: 32 files under Zipf(1.0) popularity, mixed
    [100 - w] reads to [w] writes, [w] the write fraction in percent. *)

val partitioned_epochs :
  hosts:int -> epochs:int -> partition_prob:float -> write_fraction:float ->
  seed:int -> epoch_totals
(** The partitioned-epoch driver behind E7 and [ficusctl simulate]: a
    volume replicated on every host, one {!epoch_trace} working set set
    up and converged, then [epochs] epochs.  Each epoch is split into
    singleton partitions with probability [partition_prob], every host
    replays 30 ops of a freshly seeded trace, and the cluster heals and
    converges.  Returns the op counts and the conflicts every replica's
    log recorded.  [seed] seeds the cluster and the epoch draws. *)

val scale_ops : int ref
(** Trace length for the SCALE benchmark (default 1_000_000).  The bench
    harness lowers it for smoke runs and CI (--scale-ops). *)

val scale_floor : float ref
(** Throughput regression floor in sim-ops/sec (default 0 = no floor).
    When positive, the SCALE verdict fails if the replay runs slower —
    this is the gate CI's bench-perf job enforces (--scale-floor). *)

val scale_trace_out : string option ref
(** Where the SCALE determinism arm writes its streaming trace export
    (--trace-out).  [None] (the default) still runs the export — the
    lossless-export invariant is part of the SCALE verdict — but into a
    temp file that is deleted afterwards. *)

val names : string list
(** Every experiment, in the order [bench] runs them: [e1]–[e10], [f2],
    the ablations [a1]–[a5], then the system experiments.  Each
    reproduces one claim; the registry in [experiments.ml] names it
    beside each entry, and EXPERIMENTS.md records what each measured. *)

val run_by_name : string -> verdict option
(** Run the named experiment (case-insensitive); [None] for an unknown
    name. *)

val schema : string -> (string * string list) list
(** [schema name]: the envelope keys experiment [name]'s metrics carry,
    each with the keys required inside it, as declared next to the
    experiment in the registry ([[]] for an unknown name or one that
    exports nothing).  [bench --check-schema] derives a file's required
    keys from the experiments it names. *)
