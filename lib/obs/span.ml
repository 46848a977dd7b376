(* Causal trace spans.

   An update is stamped with a span id where it enters the system (the
   logical layer, or the NFS client on a remote mount) and every later
   stage of its life — NFS transport, physical-layer version bump,
   journal group commit, notify multicast, new-version-cache admission,
   propagation pull, shadow swap, reconciliation install — appends a
   timestamped event to the same span.  The result is a per-update
   timeline across hosts, ordered by the simulated clock.

   Span ids travel two ways:
   - explicitly, as an [int] field on wire messages and stored aux
     attributes (0 = "no span", so old encodings decode fine);
   - implicitly, through a process-global *ambient context*, so deep
     layers (the UFS journal, the shadow installer) can emit events
     without threading an argument through every signature.  The
     ambient form mirrors how a kernel would hang a trace id off the
     current thread. *)

type event = { e_tick : int; e_host : string; e_label : string; e_seq : int }

type span = {
  sp_id : int;
  sp_label : string;
  sp_origin : string;
  sp_start : int;
  mutable sp_events : event list; (* newest first *)
}

(* A span's full record at the moment it leaves the in-memory table:
   what the export hook receives, and what [export] returns for a span
   still resident.  Events are oldest-first. *)
type exported = {
  x_id : int;
  x_label : string;
  x_origin : string;
  x_start : int;
  x_events : event list;
}

type t = {
  mutable next_id : int;
  mutable next_seq : int; (* total order for same-tick events *)
  mutable retention : int option; (* keep at most this many spans *)
  mutable oldest : int; (* eviction cursor; ids are dense from 1 *)
  spans : (int, span) Hashtbl.t;
  mutable n_evicted : int;
  mutable export_hook : (exported -> unit) option;
  mutable evict_notify : (unit -> unit) option;
}

let none = 0

let create () =
  {
    next_id = 1;
    next_seq = 0;
    retention = None;
    oldest = 1;
    spans = Hashtbl.create 64;
    n_evicted = 0;
    export_hook = None;
    evict_notify = None;
  }

let set_retention t cap =
  if cap <= 0 then invalid_arg "Span.set_retention";
  t.retention <- Some cap

let set_export_hook t f = t.export_hook <- Some f
let clear_export_hook t = t.export_hook <- None
let set_evict_notify t f = t.evict_notify <- Some f
let evicted t = t.n_evicted
let live t = Hashtbl.length t.spans
let minted t = t.next_id - 1

let sort_events events =
  List.sort
    (fun a b ->
      match compare a.e_tick b.e_tick with 0 -> compare a.e_seq b.e_seq | c -> c)
    events

let exported_of_span sp =
  {
    x_id = sp.sp_id;
    x_label = sp.sp_label;
    x_origin = sp.sp_origin;
    x_start = sp.sp_start;
    x_events = sort_events sp.sp_events;
  }

let export t id =
  Option.map exported_of_span (Hashtbl.find_opt t.spans id)

let push t sp ~host ~tick label =
  let e = { e_tick = tick; e_host = host; e_label = label; e_seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  sp.sp_events <- e :: sp.sp_events

let start t ~host ~tick label =
  let id = t.next_id in
  t.next_id <- id + 1;
  let sp = { sp_id = id; sp_label = label; sp_origin = host; sp_start = tick; sp_events = [] } in
  Hashtbl.replace t.spans id sp;
  (match t.retention with
  | None -> ()
  | Some cap ->
    (* Ids are minted densely, so the oldest surviving span is at the
       cursor; [event] on an evicted id is already a silent no-op.  The
       export hook fires before the removal so no trace data is lost to
       the cap; the evict notify lets the owner count the eviction. *)
    while id - t.oldest + 1 > cap do
      (match Hashtbl.find_opt t.spans t.oldest with
      | Some victim ->
        (match t.export_hook with
        | Some f -> f (exported_of_span victim)
        | None -> ());
        Hashtbl.remove t.spans t.oldest;
        t.n_evicted <- t.n_evicted + 1;
        (match t.evict_notify with Some f -> f () | None -> ())
      | None ->
        (* Cursor position already vacant (retention tightened); still
           advance so the loop terminates. *)
        ());
      t.oldest <- t.oldest + 1
    done);
  push t sp ~host ~tick label;
  id

(* Distinguish "this span existed here and was aged out" from "this id
   was never minted by this registry": ids are dense from 1, so anything
   below the allocation cursor but absent from the table was evicted. *)
type status = Live | Evicted | Unknown

let status t id =
  if id < 1 || id >= t.next_id then Unknown
  else if Hashtbl.mem t.spans id then Live
  else Evicted

let event t id ~host ~tick label =
  if id <> none then
    match Hashtbl.find_opt t.spans id with
    | None -> () (* span minted on another registry; drop, don't invent *)
    | Some sp -> push t sp ~host ~tick label

let timeline t id =
  match Hashtbl.find_opt t.spans id with
  | None -> []
  | Some sp ->
    List.sort
      (fun a b ->
        match compare a.e_tick b.e_tick with 0 -> compare a.e_seq b.e_seq | c -> c)
      sp.sp_events

let start_tick t id =
  match Hashtbl.find_opt t.spans id with None -> None | Some sp -> Some sp.sp_start

let label t id =
  match Hashtbl.find_opt t.spans id with None -> None | Some sp -> Some sp.sp_label

let ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.spans [])

(* ------------------------------------------------------------------ *)
(* Ambient context                                                     *)

type ctx = { c_spans : t; c_id : int; c_host : string; c_now : unit -> int }

let current : ctx option ref = ref None

let make_ctx ~spans ~id ~host ~now = { c_spans = spans; c_id = id; c_host = host; c_now = now }

let capture () = !current
let ambient_id () = match !current with None -> none | Some c -> c.c_id

let emit_in c label = event c.c_spans c.c_id ~host:c.c_host ~tick:(c.c_now ()) label

let emit label = match !current with None -> () | Some c -> emit_in c label

let with_ctx c f =
  let saved = !current in
  current := Some c;
  Fun.protect ~finally:(fun () -> current := saved) f
