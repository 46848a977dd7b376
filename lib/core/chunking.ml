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

let byte_gear data i = Array.unsafe_get gear (Char.code (String.unsafe_get data i))

let chunk_at data off len =
  { off; len; digest = Digest.to_hex (Digest.substring data off len) }

(* The end (exclusive) of the chunk that starts at [start < length data].
   Byte-identical to hashing every byte of the chunk, at a fraction of
   the work.  h_i's low [mask_bits] bits are the low bits of
   sum_{j <= i} gear[b_j] << (i - j), and a term shifted by [mask_bits]
   or more contributes only zeros there (carries move upward only, and
   the wrap of [lsl] at the word size drops high bits only), so the
   boundary test at byte [i] reads exactly bytes [i - mask_bits + 1 ..
   i].  No boundary may fall before [start + min_size - 1], so hashing
   can begin [mask_bits - 1] bytes before it instead of at [start]. *)
let next_cut data start =
  let first = start + min_size - 1 in
  let last = min (String.length data - 1) (start + max_size - 1) in
  if first > last then String.length data
  else begin
    let h = ref 0 in
    for j = first - mask_bits + 1 to first do
      h := (!h lsl 1) + byte_gear data j
    done;
    let i = ref first in
    while !h land mask <> 0 && !i < last do
      incr i;
      h := (!h lsl 1) + byte_gear data !i
    done;
    !i + 1
  end

(* Each chunk is digested in place. *)
let split data =
  let rec go start acc =
    if start >= String.length data then List.rev acc
    else
      let stop = next_cut data start in
      go stop (chunk_at data start (stop - start) :: acc)
  in
  go 0 []

external string_get64u : string -> int -> int64 = "%caml_string_get64u"

(* [a.[ia, ia+len)] equals [b.[ib, ib+len)], a word at a time; the
   caller keeps both ranges in bounds. *)
let equal_range a ia b ib len =
  let i = ref 0 in
  while !i + 8 <= len && (string_get64u a (ia + !i) : int64) = string_get64u b (ib + !i) do
    i := !i + 8
  done;
  while !i < len && String.unsafe_get a (ia + !i) = String.unsafe_get b (ib + !i) do
    incr i
  done;
  !i = len

(* A cut depends only on its chunk's start and the bytes up to it
   ([next_cut] never reads past the cut, and only the last chunk can be
   cut short by the end of the file).  So at a cut of [data] where an
   old chunk starts over the same bytes, that old chunk is the next
   chunk of [data], digest and all; the last old chunk also needs the
   same end of file.  An edit moves the bytes after it by the length
   change, so an old chunk is looked for at the same offset (before the
   edit, and between in-place edits) and at the offset shifted by the
   length change (after the last edit).  Every other chunk is cut and
   digested afresh: about the edited chunks. *)
let resplit ~old old_map data =
  let n = String.length data in
  if String.equal old data then (old_map, 0)
  else begin
    let delta = n - String.length old in
    let olds = Array.of_list old_map in
    let nolds = Array.length olds in
    (* The first old chunk that, shifted by [shift], starts at or after [start]. *)
    let rec skip shift j start =
      if j < nolds && olds.(j).off + shift < start then skip shift (j + 1) start else j
    in
    let same shift j start =
      j < nolds
      && olds.(j).off + shift = start
      && start + olds.(j).len <= n
      && (j + 1 < nolds || start + olds.(j).len = n)
      && equal_range old olds.(j).off data start olds.(j).len
    in
    (* [j0] and [jd] follow [start] unshifted and shifted by [delta]. *)
    let rec go start j0 jd acc hashed =
      if start >= n then (List.rev acc, hashed)
      else
        let j0 = skip 0 j0 start and jd = skip delta jd start in
        let reused = if same 0 j0 start then Some j0 else if same delta jd start then Some jd else None in
        match reused with
        | Some j -> go (start + olds.(j).len) j0 jd ({ (olds.(j)) with off = start } :: acc) hashed
        | None ->
          let stop = next_cut data start in
          go stop j0 jd (chunk_at data start (stop - start) :: acc) (hashed + (stop - start))
    in
    go 0 0 0 [] 0
  end

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
  let with_map bytes map = { bytes; digest = None; map = Some map }
  let bytes c = c.bytes
  let has_map c = Option.is_some c.map

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
