(* Streaming span export in Chrome trace-event JSONL.

   One line per trace event, so a million-op soak can stream spans out
   as retention evicts them instead of holding every timeline in
   memory.  Each span becomes an async begin ("ph":"b") at its start
   tick, one instant ("ph":"i") per recorded event, and an async end
   ("ph":"e") at its last event's tick; the span id doubles as the
   async-event id so viewers nest the instants under the span.  Ticks
   are written as microseconds (ts), which renders one simulated tick
   as 1us in chrome://tracing / Perfetto.

   The writer is append-only and flushes on [close]; it never reads the
   file back, so the same path can be inspected while a soak runs. *)

type t = {
  oc : out_channel;
  path : string;
  mutable n_spans : int;
  mutable n_lines : int;
  mutable closed : bool;
}

let create path =
  { oc = open_out path; path; n_spans = 0; n_lines = 0; closed = false }

let path t = t.path
let exported t = t.n_spans
let lines t = t.n_lines

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let line t fmt =
  Printf.ksprintf
    (fun s ->
      output_string t.oc s;
      output_char t.oc '\n';
      t.n_lines <- t.n_lines + 1)
    fmt

(* One span's complete record: a "ph":"b" line, one "ph":"i" line per
   event, and a "ph":"e" line. *)
let write_span t (x : Span.exported) =
  if t.closed then invalid_arg "Trace_export.write_span: closed";
  let last_tick =
    List.fold_left (fun acc (e : Span.event) -> max acc e.e_tick) x.x_start x.x_events
  in
  line t {|{"name":"%s","cat":"span","ph":"b","id":%d,"ts":%d,"pid":1,"tid":"%s"}|}
    (json_escape x.x_label) x.x_id x.x_start (json_escape x.x_origin);
  List.iter
    (fun (e : Span.event) ->
      line t
        {|{"name":"%s","cat":"span","ph":"i","s":"t","ts":%d,"pid":1,"tid":"%s","args":{"span":%d}}|}
        (json_escape e.e_label) e.e_tick (json_escape e.e_host) x.x_id)
    x.x_events;
  line t {|{"name":"%s","cat":"span","ph":"e","id":%d,"ts":%d,"pid":1,"tid":"%s"}|}
    (json_escape x.x_label) x.x_id last_tick (json_escape x.x_origin);
  t.n_spans <- t.n_spans + 1

let attach t spans = Span.set_export_hook spans (fun x -> write_span t x)

let drain t spans =
  let ids = Span.ids spans in
  List.iter
    (fun id -> match Span.export spans id with Some x -> write_span t x | None -> ())
    ids;
  List.length ids

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end
