(* The observability bundle a cluster (or a standalone stack) carries:
   one metrics registry plus one span table, and the shared Logs
   reporter that tags every line with host name and simulated time. *)

type t = { metrics : Metrics.t; spans : Span.t; mutable ctl_serial : int }

let create () =
  let metrics = Metrics.create () in
  let spans = Span.create () in
  (* Retention evictions surface in the registry as they happen, so a
     capped soak's [.#ficus#stats] snapshot shows the loss rate live. *)
  Span.set_evict_notify spans (fun () -> Metrics.incr metrics "spans.evicted");
  { metrics; spans; ctl_serial = 0 }

(* A process-wide default, used by components constructed without an
   explicit [?obs] (unit tests building a bare Physical.t, say).  Each
   Cluster.create makes its own bundle, so simulations never bleed
   metrics into each other. *)
let default = create ()

(* Count once into a component's private counter set and the shared
   cluster-wide registry together — daemons keep isolated counters for
   inspection while metrics_snapshot sees the same key.  Shared here so
   every daemon doesn't re-grow its own copy of the mirroring helper. *)
let count ?(n = 1) t counters key =
  Counters.add counters key n;
  Metrics.add t.metrics key n

(* ------------------------------------------------------------------ *)
(* Shared Logs reporter                                                *)

(* Log lines are tagged with the emitting host so a multi-host
   simulation interleaved in one process stays readable. *)
let host_tag : string Logs.Tag.def =
  Logs.Tag.def "host" ~doc:"emitting replica host name" Format.pp_print_string

let reporter ?(out = Format.err_formatter) ~now () =
  let report src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf @@ fun ?header ?tags fmt ->
    ignore header;
    let host =
      match Option.bind tags (Logs.Tag.find host_tag) with
      | Some h -> h
      | None -> "-"
    in
    Format.kfprintf k out
      ("[%6d] %a %s %s: " ^^ fmt ^^ "@.")
      (now ()) Logs.pp_level level (Logs.Src.name src) host
  in
  { Logs.report }
