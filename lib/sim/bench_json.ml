(* The bench JSON artifact: one generic writer over [Experiments.value]
   and the small reader the schema check needs (there is no JSON
   library in the dependency set). *)

open Experiments

(* Shortest decimal that reads back to the same float, always with a
   fraction or an exponent so it reads back as a float. *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let add_string buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Trace_export.json_escape s);
  Buffer.add_char buf '"'

(* One item per line, indented two spaces past the opening bracket. *)
let add_seq buf indent (opening, closing) add items =
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent + 2) ' ');
      add x)
    items;
  if items <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ')
  end;
  Buffer.add_char buf closing

let rec add_value buf indent = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | String s -> add_string buf s
  | List vs -> add_seq buf indent ('[', ']') (add_value buf (indent + 2)) vs
  | Obj kvs ->
    add_seq buf indent ('{', '}')
      (fun (k, v) ->
        add_string buf k;
        Buffer.add_string buf ": ";
        add_value buf (indent + 2) v)
      kvs

let to_string ~mode verdicts =
  let verdict v =
    Obj
      [
        ("experiment", String v.experiment);
        ("holds", Bool v.holds);
        ("claim", String v.claim);
        ("detail", String v.detail);
      ]
  in
  let rec last_wins = function
    | [] -> []
    | (k, v) :: tl -> if List.mem_assoc k tl then last_wins tl else (k, v) :: last_wins tl
  in
  let doc =
    Obj
      ([
         ("schema", String "ficus-bench/1");
         ("mode", String mode);
         ("reproduced", Int (List.length (List.filter (fun v -> v.holds) verdicts)));
         ("total", Int (List.length verdicts));
         ("experiments", List (List.map verdict verdicts));
       ]
      @ last_wins (List.concat_map (fun v -> v.metrics) verdicts))
  in
  let buf = Buffer.create 4096 in
  add_value buf 0 doc;
  Buffer.add_char buf '\n';
  Buffer.contents buf

exception Syntax of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Syntax (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  (* A lone UTF-16 surrogate (half of a pair) decodes as U+FFFD. *)
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | ('"' | '\\' | '/') as c -> Buffer.add_char b c
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' when !pos + 5 <= n ->
           (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code ->
              Buffer.add_utf_8_uchar b
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
            | None -> fail "bad \\u escape");
           pos := !pos + 4
         | _ -> fail "bad escape");
        incr pos;
        go ()
      | _ when !pos >= n -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do incr pos done;
    let lit = String.sub s start (!pos - start) in
    match (int_of_string_opt lit, float_of_string_opt lit) with
    | Some i, _ -> Int i
    | None, Some f -> Float f
    | None, None -> fail "expected a value"
  in
  (* Items up to [closing]; a trailing comma is tolerated (see mli). *)
  let items closing item =
    let rec go acc =
      skip_ws ();
      if peek () = closing then begin
        incr pos;
        List.rev acc
      end
      else begin
        let acc = item () :: acc in
        skip_ws ();
        if peek () = ',' then incr pos
        else if peek () <> closing then fail (Printf.sprintf "expected ',' or '%c'" closing);
        go acc
      end
    in
    go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = string_lit () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      List (items ']' value)
    | '"' -> String (string_lit ())
    | ('t' | 'f') as c ->
      let word = if c = 't' then "true" else "false" in
      let len = String.length word in
      if !pos + len <= n && String.sub s !pos len = word then begin
        pos := !pos + len;
        Bool (c = 't')
      end
      else fail "expected a value"
    | _ -> number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing data";
    v
  with
  | v -> Ok v
  | exception Syntax msg -> Error msg

let envelope_keys = [ "schema"; "mode"; "reproduced"; "total"; "experiments" ]
let verdict_keys = [ "experiment"; "holds"; "claim"; "detail" ]

let missing_keys doc =
  let fields = function Obj kvs -> kvs | _ -> [] in
  let absent kvs keys = List.filter (fun k -> not (List.mem_assoc k kvs)) keys in
  let top = fields doc in
  let verdicts =
    match List.assoc_opt "experiments" top with Some (List vs) -> vs | _ -> []
  in
  let of_verdict v =
    let kvs = fields v in
    let name = match List.assoc_opt "experiment" kvs with Some (String s) -> s | _ -> "" in
    absent kvs verdict_keys
    @ List.concat_map
        (fun (section, keys) ->
          match List.assoc_opt section top with
          | None -> [ section ]
          | Some inner ->
            List.map
              (fun k -> Printf.sprintf "%s (in %s)" k section)
              (absent (fields inner) keys))
        (schema name)
  in
  List.sort_uniq compare (absent top envelope_keys @ List.concat_map of_verdict verdicts)
