(* The observability bundle a cluster (or a standalone stack) carries:
   one metrics registry plus one span table, and the Logs tag that
   names the emitting host. *)

type t = { metrics : Metrics.t; spans : Span.t; mutable ctl_serial : int }

let create () =
  let metrics = Metrics.create () in
  let spans = Span.create () in
  (* Retention evictions surface in the registry as they happen, so a
     capped soak's [.#ficus#stats] snapshot shows the loss rate live. *)
  Span.set_evict_notify spans (fun () -> Metrics.incr metrics "spans.evicted");
  { metrics; spans; ctl_serial = 0 }

let counters t = Counters.child (Metrics.counters t.metrics)

(* Log lines are tagged with the emitting host so a multi-host
   simulation interleaved in one process stays readable under any
   Logs reporter that prints tags. *)
let host_tag : string Logs.Tag.def =
  Logs.Tag.def "host" ~doc:"emitting replica host name" Format.pp_print_string
