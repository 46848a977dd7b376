(** The bench harness's JSON artifact and the schema check CI runs on
    it.  Nothing here lists keys: the envelope carries each verdict's
    metrics pairs in run order, and the keys a file must carry are
    derived from the experiments it names ({!Experiments.schema}). *)

val to_string : mode:string -> Experiments.verdict list -> string
(** The artifact: [schema], [mode], [reproduced], [total] and
    [experiments] (one object per verdict), then every verdict's metrics
    pairs in run order.  A key exported twice (an experiment run twice)
    keeps its last value. *)

val parse : string -> (Experiments.value, string) result
(** Read a JSON document back: the writer's output, or the same file
    rewritten by another JSON tool ([null] is not supported).  Tolerates a
    trailing comma before a closing bracket, so an artifact with a line
    cut out by hand still reaches {!missing_keys}. *)

val missing_keys : Experiments.value -> string list
(** Keys the document lacks: the envelope keys, each verdict's keys,
    and, for every experiment named in [experiments], its declared
    envelope keys and the keys declared inside them (reported as
    ["key (in section)"]).  [[]] means the schema check passes. *)
