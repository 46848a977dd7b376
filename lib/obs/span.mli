(** Causal trace spans: per-update timelines across hosts, ordered by
    the simulated clock. *)

type t

type event = { e_tick : int; e_host : string; e_label : string; e_seq : int }

val none : int
(** The null span id (0): [event] on it is a no-op, and it is what old
    on-disk/wire encodings without a span field decode to. *)

val create : unit -> t

val set_retention : t -> int -> unit
(** Bound the table to the newest [cap] spans ([cap > 0]); older spans
    are evicted as new ones start, and later [event]s on them become
    no-ops.  By default retention is unbounded — every span is kept,
    which is what the observability experiments rely on.  Million-op
    replays (the SCALE benchmark) set a cap so per-update spans do not
    accumulate without bound. *)

type exported = {
  x_id : int;
  x_label : string;
  x_origin : string;
  x_start : int;
  x_events : event list;  (** oldest-first *)
}
(** A span's full record at the moment it is handed to an export hook
    (or read back with [export]). *)

val set_export_hook : t -> (exported -> unit) -> unit
(** Install a hook that receives each span's complete record just
    before retention evicts it from the table.  With a hook installed a
    capped store loses no trace data: everything is either still live
    or has passed through the hook. *)

val clear_export_hook : t -> unit

val set_evict_notify : t -> (unit -> unit) -> unit
(** Called once per evicted span, after the export hook; [Obs.create]
    wires this to a [spans.evicted] counter in the metrics registry. *)

val export : t -> int -> exported option
(** The full record of a still-live span (events oldest-first); [None]
    if evicted or never minted. *)

val evicted : t -> int
(** Spans dropped by retention so far. *)

val minted : t -> int
(** Total spans ever started. *)

val live : t -> int
(** Spans currently resident ([minted] minus [evicted]). *)

type status = Live | Evicted | Unknown

val status : t -> int -> status
(** Distinguish a span aged out by retention ([Evicted]) from an id
    this registry never minted ([Unknown]).  Ids are dense from 1, so
    anything below the allocation cursor but absent from the table was
    evicted.  (An id minted by a {e different} registry that happens to
    fall below this one's cursor is indistinguishable from a local
    eviction; callers comparing across registries must carry the
    origin.) *)

val start : t -> host:string -> tick:int -> string -> int
(** Mint a fresh span id and record its first event. *)

val event : t -> int -> host:string -> tick:int -> string -> unit
(** Append an event to an existing span.  No-op for [none] or unknown
    ids. *)

val timeline : t -> int -> event list
(** All events of a span, sorted by (tick, admission order). *)

val start_tick : t -> int -> int option
val label : t -> int -> string option
val ids : t -> int list

(** {2 Ambient context}

    A process-global "current span" so layers deep in the stack (the
    journal's group commit, the shadow installer) can attribute events
    without an explicit argument in every signature. *)

type ctx

val make_ctx : spans:t -> id:int -> host:string -> now:(unit -> int) -> ctx
val with_ctx : ctx -> (unit -> 'a) -> 'a
val capture : unit -> ctx option
(** Grab the ambient context for deferred attribution (e.g. a group
    commit that seals later than the write it covers). *)

val ambient_id : unit -> int
val emit : string -> unit
(** Record an event on the ambient span; silently does nothing when no
    context is installed. *)

val emit_in : ctx -> string -> unit
