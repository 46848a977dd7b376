(** Streaming span export as Chrome trace-event JSONL.

    Pairs with {!Span.set_export_hook} so a retention-capped span store
    streams each span's full timeline to disk just before eviction:
    bounded memory, no lost trace data.  The output loads in
    chrome://tracing or Perfetto (one simulated tick = 1us); each span
    is an async begin/end pair carrying the span id, with one instant
    event per recorded hop. *)

type t

val create : string -> t
(** Open [path] for appending trace lines (truncates any existing
    file). *)

val attach : t -> Span.t -> unit
(** Install the store's export hook, so spans stream out as retention
    evicts them: each span's complete record is a ["ph":"b"] line, one
    ["ph":"i"] line per event, and a ["ph":"e"] line.  Exporting after
    {!close} raises [Invalid_argument]. *)

val drain : t -> Span.t -> int
(** Export every still-live span in id order (used at end of run to
    flush spans the cap never evicted).  Returns the number written. *)

val exported : t -> int
(** Spans written so far (eviction-streamed plus drained). *)

val lines : t -> int
(** Raw JSONL lines written. *)

val path : t -> string
val close : t -> unit

val json_escape : string -> string
(** Escape a string for use between JSON double quotes. *)
