(* Content-defined chunking for delta propagation.

   Boundaries are chosen by a gear rolling hash: at byte [i] the hash is
   h_i = (h_{i-1} << 1) + gear[byte_i], and a boundary is declared when
   the low [mask_bits] bits of h are all zero.  Because each shift pushes
   older bytes toward the high bits, the low [mask_bits] bits of h depend
   only on the last [mask_bits] bytes — boundaries are a pure function of
   a small local window, which is the whole point: inserting bytes near
   the front of a file shifts every later byte, but as soon as the window
   re-aligns the remaining boundaries (and therefore the remaining chunk
   digests) are exactly the ones the old file had.  Only the chunks
   overlapping the edit change identity.

   The gear table is derived from a fixed seed by a splitmix-style
   generator, never from the environment: two replicas built from the
   same source must cut identical boundaries or the negotiation protocol
   would ship every chunk every time. *)

type chunk = { off : int; len : int; digest : string }

let min_size = 1024
let max_size = 16384
let mask_bits = 12
let mask = (1 lsl mask_bits) - 1

(* splitmix-style generator truncated to OCaml's 63-bit native int; seed
   fixed for protocol compatibility across replicas and versions. *)
let gear =
  let state = ref 0x1E3779B97F4A7C15 in
  Array.init 256 (fun _ ->
      state := (!state + 0x1E3779B97F4A7C15) land max_int;
      let z = !state in
      let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
      let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
      (z lxor (z lsr 31)) land max_int)

let digest_hex s = Digest.to_hex (Digest.string s)

(* Byte-identical to hashing every byte of every chunk, at a fraction
   of the work.  h_i's low [mask_bits] bits are the low bits of
   sum_{j <= i} gear[b_j] << (i - j), and a term shifted by [mask_bits]
   or more contributes only zeros there (carries move upward only, and
   the wrap of [lsl] at the word size drops high bits only), so the
   boundary test at byte [i] reads exactly bytes [i - mask_bits + 1 ..
   i].  No boundary may fall before [start + min_size - 1], so hashing
   can begin [mask_bits - 1] bytes before it instead of at [start].
   Each chunk is digested in place. *)
let split data =
  let n = String.length data in
  let chunks = ref [] in
  let cut start len =
    chunks :=
      { off = start; len; digest = Digest.to_hex (Digest.substring data start len) }
      :: !chunks
  in
  let byte_gear i = Array.unsafe_get gear (Char.code (String.unsafe_get data i)) in
  let start = ref 0 in
  while !start < n do
    let first = !start + min_size - 1 in
    let last = min (n - 1) (!start + max_size - 1) in
    if first > last then begin
      cut !start (n - !start);
      start := n
    end
    else begin
      let h = ref 0 in
      for j = first - mask_bits + 1 to first do
        h := (!h lsl 1) + byte_gear j
      done;
      let i = ref first in
      while !h land mask <> 0 && !i < last do
        incr i;
        h := (!h lsl 1) + byte_gear !i
      done;
      cut !start (!i - !start + 1);
      start := !i + 1
    end
  done;
  List.rev !chunks

let total_length chunks = List.fold_left (fun acc c -> acc + c.len) 0 chunks

(* One line per chunk, offsets implied by accumulation:
     chunk=<32-hex-md5> <len> *)
let encode_map chunks =
  let buf = Buffer.create (44 * List.length chunks) in
  List.iter
    (fun c ->
      Buffer.add_string buf "chunk=";
      Buffer.add_string buf c.digest;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int c.len);
      Buffer.add_char buf '\n')
    chunks;
  Buffer.contents buf

let is_hex_digest s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let decode_map s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let parse (off, acc) line =
    match acc with
    | None -> (off, None)
    | Some chunks ->
      if String.length line > 6 && String.sub line 0 6 = "chunk=" then
        match String.index_opt line ' ' with
        | None -> (off, None)
        | Some sp ->
          let digest = String.sub line 6 (sp - 6) in
          let len = String.sub line (sp + 1) (String.length line - sp - 1) in
          (match int_of_string_opt len with
           | Some len when len > 0 && is_hex_digest digest ->
             (off + len, Some ({ off; len; digest } :: chunks))
           | _ -> (off, None))
      else (off, None)
  in
  match List.fold_left parse (0, Some []) lines with
  | _, None -> None
  | _, Some chunks -> Some (List.rev chunks)

let slice data c = String.sub data c.off c.len

(* Reassemble file contents from a chunk map, resolving each digest
   either locally ([have]) or from the fetched bodies ([fetched]).
   Returns [None] if any digest is unresolvable or a body's length
   disagrees with the map. *)
let reassemble chunks ~have ~fetched =
  let buf = Buffer.create (total_length chunks) in
  let ok =
    List.for_all
      (fun c ->
        let body =
          match have c.digest with Some b -> Some b | None -> fetched c.digest
        in
        match body with
        | Some b when String.length b = c.len ->
          Buffer.add_string buf b;
          true
        | _ -> false)
      chunks
  in
  if ok then Some (Buffer.contents buf) else None

module Content = struct
  type t = {
    bytes : string;
    mutable digest : string option;
    mutable map : chunk list option;
  }

  let make bytes = { bytes; digest = None; map = None }
  let verified bytes ~digest map = { bytes; digest = Some digest; map = Some map }
  let bytes c = c.bytes

  let digest c =
    match c.digest with
    | Some d -> d
    | None ->
      let d = digest_hex c.bytes in
      c.digest <- Some d;
      d

  let map c =
    match c.map with
    | Some m -> m
    | None ->
      let m = split c.bytes in
      c.map <- Some m;
      m
end
