(* The byte-at-a-time chunker that {!Chunking.split}'s windowed one
   replaced, kept as the test oracle: the gear hash runs over every byte
   of every chunk, and each chunk body is copied out before it is
   hashed.  It keeps its own copy of the gear table, so a drift in
   Chunking's table fails the comparison too; it uses Chunking's size
   parameters and chunk type, so results compare directly. *)

open Chunking

let mask = (1 lsl mask_bits) - 1

let gear =
  let state = ref 0x1E3779B97F4A7C15 in
  Array.init 256 (fun _ ->
      state := (!state + 0x1E3779B97F4A7C15) land max_int;
      let z = !state in
      let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
      let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
      (z lxor (z lsr 31)) land max_int)

let split data =
  let n = String.length data in
  let chunks = ref [] in
  let cut start len =
    let body = String.sub data start len in
    chunks := { off = start; len; digest = digest_hex body } :: !chunks
  in
  let start = ref 0 in
  let h = ref 0 in
  for i = 0 to n - 1 do
    h := ((!h lsl 1) + Array.unsafe_get gear (Char.code (String.unsafe_get data i)))
         land max_int;
    let len = i - !start + 1 in
    if len >= max_size || (len >= min_size && !h land mask = 0) then begin
      cut !start len;
      start := i + 1;
      h := 0
    end
  done;
  if !start < n then cut !start (n - !start);
  List.rev !chunks
