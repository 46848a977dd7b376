(** Plain-text table rendering for experiment output (the benchmark
    harness prints one table per reproduced claim). *)

val print : title:string -> headers:string list -> string list list -> unit
(** Render to standard output with aligned columns, a title line and a
    rule. *)

val fmt_pct : float -> string
(** A [0,1] fraction as a percentage with 2 decimals. *)
