(* Content-defined chunking laws (qcheck) plus deterministic unit
   checks of the boundary-stability claim the delta path rests on. *)

let prop name ?(count = 100) arb f = QCheck.Test.make ~name ~count arb f

(* Arbitrary byte strings over the full alphabet; sizes up to a few
   dozen chunks so boundary logic (min/max clamps, remainders) is
   exercised, not just the trivial single-chunk case. *)
let arb_bytes =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s))
    QCheck.Gen.(string_size ~gen:char (int_bound 60_000))

(* Deterministic full-entropy bytes for the unit tests: an MD5 counter
   stream.  (A naive LCG repeats its low bits every few KiB, which
   collapses the distinct-digest counts these tests rely on.) *)
let synth ?(seed = "chunk") n =
  let buf = Buffer.create (n + 16) in
  let i = ref 0 in
  while Buffer.length buf < n do
    Buffer.add_string buf (Digest.string (Printf.sprintf "%s-%d" seed !i));
    incr i
  done;
  Buffer.sub buf 0 n

(* Inputs for the oracle law: full-entropy bytes, two-symbol and
   constant runs (which rarely or never hash to a boundary, so they
   force [max_size] cuts), at lengths spread over a few dozen chunks and
   at the clamp edges. *)
let arb_oracle =
  let open QCheck.Gen in
  let edge =
    oneofl
      [ 0; 1; Chunking.min_size - 1; Chunking.min_size; Chunking.min_size + 1;
        Chunking.max_size - 1; Chunking.max_size; Chunking.max_size + 1 ]
  in
  let len = frequency [ (1, edge); (3, int_bound 120_000) ] in
  let gen =
    len >>= fun n ->
    frequency
      [
        (2, string_size ~gen:char (return n));
        (1, pair char char >>= fun (a, b) -> string_size ~gen:(oneofl [ a; b ]) (return n));
        (1, map (fun c -> String.make n c) char);
      ]
  in
  QCheck.make ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s)) gen

let digests chunks = List.map (fun c -> c.Chunking.digest) chunks

(* Edits for the incremental-split law: each kind at the front, in the
   middle and at the end, with payloads of random or constant bytes
   (constant ones over a constant file keep forced [max_size] cuts in
   place across the edit), from one byte to a few chunks long, alone or
   two in a row (unchanged chunks between two edits). *)
type edit =
  | Overwrite of int * string
  | Insert of int * string
  | Delete of int * int
  | Append of string
  | Truncate of int
  | Identical
  | Both of edit * edit

let rec apply_edit s = function
  | Overwrite (at, p) ->
    let at = min at (String.length s) in
    let keep = max 0 (String.length s - at - String.length p) in
    String.sub s 0 at ^ p ^ String.sub s (String.length s - keep) keep
  | Insert (at, p) ->
    let at = min at (String.length s) in
    String.sub s 0 at ^ p ^ String.sub s at (String.length s - at)
  | Delete (at, n) ->
    let at = min at (String.length s) in
    let n = min n (String.length s - at) in
    String.sub s 0 at ^ String.sub s (at + n) (String.length s - at - n)
  | Append p -> s ^ p
  | Truncate n -> String.sub s 0 (min n (String.length s))
  | Identical -> s
  | Both (a, b) -> apply_edit (apply_edit s a) b

let rec print_edit = function
  | Overwrite (at, p) -> Printf.sprintf "overwrite %d+%d" at (String.length p)
  | Insert (at, p) -> Printf.sprintf "insert %d+%d" at (String.length p)
  | Delete (at, n) -> Printf.sprintf "delete %d+%d" at n
  | Append p -> Printf.sprintf "append %d" (String.length p)
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Identical -> "identical"
  | Both (a, b) -> print_edit a ^ ", then " ^ print_edit b

let arb_edited =
  let open QCheck.Gen in
  let base = QCheck.gen arb_oracle in
  let payload =
    int_range 1 3 >>= fun k ->
    let len = if k = 1 then int_range 1 200 else int_range 1 (2 * k * Chunking.max_size / 3) in
    len >>= fun n ->
    frequency [ (2, string_size ~gen:char (return n)); (1, map (String.make n) char) ]
  in
  let edit n =
    let at = oneof [ return 0; int_bound (max 0 n); return n ] in
    frequency
      [
        (3, map2 (fun at p -> Overwrite (at, p)) at payload);
        (3, map2 (fun at p -> Insert (at, p)) at payload);
        (2, map2 (fun at k -> Delete (at, k)) at (int_range 1 (2 * Chunking.max_size)));
        (1, map (fun p -> Append p) payload);
        (1, map (fun k -> Truncate k) (int_bound (max 0 n)));
        (1, return Identical);
      ]
  in
  let gen =
    base >>= fun s ->
    let n = String.length s in
    frequency [ (3, edit n); (1, map2 (fun a b -> Both (a, b)) (edit n) (edit n)) ]
    >|= fun e -> (s, e)
  in
  QCheck.make
    ~print:(fun (s, e) -> Printf.sprintf "<%d bytes> %s" (String.length s) (print_edit e))
    gen

(* Longest common suffix length of two lists. *)
let common_suffix a b =
  let rec go a b n =
    match (a, b) with
    | x :: a', y :: b' when x = y -> go a' b' (n + 1)
    | _ -> n
  in
  go (List.rev a) (List.rev b) 0

let qcheck_props =
  [
    prop "reassembly identity: chunks tile the input" arb_bytes (fun s ->
        let chunks = Chunking.split s in
        Chunking.total_length chunks = String.length s
        && String.concat "" (List.map (Chunking.slice s) chunks) = s);
    prop "chunk sizes respect the clamps" arb_bytes (fun s ->
        let rec check off = function
          | [] -> off = String.length s
          | [ last ] ->
            (* Only the final remainder may undershoot min_size. *)
            last.Chunking.off = off
            && last.Chunking.len > 0
            && last.Chunking.len <= Chunking.max_size
            && off + last.Chunking.len = String.length s
          | c :: rest ->
            c.Chunking.off = off
            && c.Chunking.len >= Chunking.min_size
            && c.Chunking.len <= Chunking.max_size
            && check (off + c.Chunking.len) rest
        in
        String.length s = 0 || check 0 (Chunking.split s));
    prop "splitting is deterministic" arb_bytes (fun s ->
        Chunking.split s = Chunking.split s);
    prop "chunk digests match their slices" arb_bytes (fun s ->
        List.for_all
          (fun c -> Chunking.digest_hex (Chunking.slice s c) = c.Chunking.digest)
          (Chunking.split s));
    prop "map codec roundtrip" arb_bytes (fun s ->
        let chunks = Chunking.split s in
        match Chunking.decode_map (Chunking.encode_map chunks) with
        | Some chunks' -> chunks = chunks'
        | None -> false);
    prop "prefix insert re-syncs within a few chunks"
      (QCheck.make
         ~print:(fun (p, s) ->
           Printf.sprintf "<%d + %d bytes>" (String.length p) (String.length s))
         QCheck.Gen.(
           pair
             (string_size ~gen:char (int_range 1 64))
             (string_size ~gen:char (int_range 30_000 60_000))))
      (fun (p, s) ->
        (* The gear hash's boundary decision only sees a trailing window
           of bytes, so an insert near the front re-syncs quickly: all
           but a bounded number of leading chunks keep their digests.
           (Measured worst case over 10k random trials is 3 dirtied
           chunks; 6 leaves slack without admitting a reshuffle.) *)
        let d1 = digests (Chunking.split s) in
        let d2 = digests (Chunking.split (p ^ s)) in
        let shared = common_suffix d1 d2 in
        List.length d1 - shared <= 6);
    prop "split agrees with the byte-at-a-time oracle" ~count:300 arb_oracle (fun s ->
        Chunking.split s = Chunking_ref.split s);
    prop "resplit around an edit equals a fresh split" ~count:500 arb_edited (fun (old, e) ->
        let data = apply_edit old e in
        let map, _ = Chunking.resplit ~old (Chunking.split old) data in
        map = Chunking.split data && map = Chunking_ref.split data);
    prop "reassemble resolves from either source" arb_bytes (fun s ->
        let chunks = Chunking.split s in
        (* Serve even-indexed chunks as "local", the rest as "fetched". *)
        let tbl = Hashtbl.create 16 in
        List.iteri
          (fun i c ->
            if i mod 2 = 1 then
              Hashtbl.replace tbl c.Chunking.digest (Chunking.slice s c))
          chunks;
        let have d =
          if Hashtbl.mem tbl d then None
          else
            List.find_opt (fun c -> c.Chunking.digest = d) chunks
            |> Option.map (Chunking.slice s)
        in
        Chunking.reassemble chunks ~have ~fetched:(Hashtbl.find_opt tbl)
        = Some s);
  ]

(* ---------------- deterministic unit checks ---------------- *)

let test_boundary_resync () =
  (* A one-block edit in the middle dirties only the chunks it touches:
     every other chunk digest survives. *)
  let n = 512 * 1024 in
  let s = synth n in
  let edited =
    String.sub s 0 (n / 2) ^ String.make 100 '!'
    ^ String.sub s ((n / 2) + 100) (n - (n / 2) - 100)
  in
  let d1 = digests (Chunking.split s) and d2 = digests (Chunking.split edited) in
  let module SS = Set.Make (String) in
  let shared = SS.cardinal (SS.inter (SS.of_list d1) (SS.of_list d2)) in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d chunks survive the edit" shared (List.length d1))
    true
    (shared >= List.length d1 - 3);
  (* And a front insert shifts offsets without reshuffling the tail. *)
  let front = digests (Chunking.split ("HEADER" ^ s)) in
  Alcotest.(check bool) "front insert keeps a long common suffix" true
    (common_suffix d1 front >= List.length d1 - 3)

(* The map a replica serves is wire protocol: every replica must cut the
   same boundaries and print them the same way, or negotiation ships
   every chunk.  Pinned for a fixed 256 KiB stream. *)
let test_map_golden () =
  let chunks = Chunking.split (synth (256 * 1024)) in
  let map = Chunking.encode_map chunks in
  Alcotest.(check int) "chunks" 52 (List.length chunks);
  Alcotest.(check int) "map bytes" 2294 (String.length map);
  Alcotest.(check string) "map digest" "da63e8c0f77a3513a421ae4195698551"
    (Chunking.digest_hex map)

(* The windowed split starts hashing each chunk [mask_bits - 1] bytes
   before its first allowed boundary.  Random inputs rarely put a
   boundary exactly there, so these chunks are built to: each is
   [min_size] bytes whose last two are searched until the oracle's
   window hash at the last byte has its low [mask_bits] bits zero. *)
let test_boundaries_at_min_size () =
  let window_hash b stop =
    let h = ref 0 in
    for j = stop - Chunking.mask_bits + 1 to stop do
      h := (!h lsl 1) + Chunking_ref.gear.(Char.code (Bytes.get b j))
    done;
    !h land Chunking_ref.mask
  in
  let nchunks = 24 in
  let n = Chunking.min_size in
  let b = Bytes.of_string (synth ~seed:"min-size" (nchunks * n)) in
  for k = 0 to nchunks - 1 do
    let stop = ((k + 1) * n) - 1 in
    let rec search x =
      if x > 0xffff then Alcotest.fail "no boundary pair";
      Bytes.set b (stop - 1) (Char.chr (x lsr 8));
      Bytes.set b stop (Char.chr (x land 0xff));
      if window_hash b stop <> 0 then search (x + 1)
    in
    search 0
  done;
  let s = Bytes.to_string b in
  let chunks = Chunking.split s in
  Alcotest.(check bool) "agrees with the oracle" true (chunks = Chunking_ref.split s);
  Alcotest.(check (list int)) "every cut at min_size" (List.init nchunks (fun _ -> n))
    (List.map (fun c -> c.Chunking.len) chunks)

let test_content_hashes_once () =
  let s = synth 40_000 in
  let c = Chunking.Content.make s in
  Alcotest.(check string) "digest" (Chunking.digest_hex s) (Chunking.Content.digest c);
  Alcotest.(check bool) "map" true (Chunking.Content.map c = Chunking.split s);
  Alcotest.(check bool) "digest is kept" true
    (Chunking.Content.digest c == Chunking.Content.digest c);
  Alcotest.(check bool) "map is kept" true
    (Chunking.Content.map c == Chunking.Content.map c);
  let v = Chunking.Content.verified s ~digest:"d" [] in
  Alcotest.(check string) "a verified digest is adopted" "d" (Chunking.Content.digest v);
  Alcotest.(check bool) "a verified map is adopted" true (Chunking.Content.map v = [])

(* An edit inside one chunk of a large file digests about that chunk,
   not the file, whether it keeps the length or shifts every later byte;
   two edits far apart digest about their two chunks; an identical file
   digests nothing. *)
let test_resplit_hashes_the_edit () =
  let n = 256 * 1024 in
  let s = synth n in
  let map = Chunking.split s in
  let edited = apply_edit s (Overwrite (n / 2, String.make 128 '!')) in
  let map', hashed = Chunking.resplit ~old:s map edited in
  Alcotest.(check bool) "equals the split" true (map' = Chunking.split edited);
  Alcotest.(check bool)
    (Printf.sprintf "digested %d bytes, at most two chunks" hashed)
    true
    (hashed > 0 && hashed <= 2 * Chunking.max_size);
  let twice = apply_edit edited (Overwrite (n / 8, String.make 128 '?')) in
  let map'', hashed = Chunking.resplit ~old:s map twice in
  Alcotest.(check bool) "two edits: equals the split" true (map'' = Chunking.split twice);
  Alcotest.(check bool)
    (Printf.sprintf "two edits: digested %d bytes, at most four chunks" hashed)
    true
    (hashed > 0 && hashed <= 4 * Chunking.max_size);
  let inserted = apply_edit s (Insert (n / 2, String.make 100 '+')) in
  let map_i, hashed = Chunking.resplit ~old:s map inserted in
  Alcotest.(check bool) "an insert: equals the split" true (map_i = Chunking.split inserted);
  Alcotest.(check bool)
    (Printf.sprintf "an insert: digested %d bytes, at most two chunks" hashed)
    true
    (hashed > 0 && hashed <= 2 * Chunking.max_size);
  let same, none = Chunking.resplit ~old:s map s in
  Alcotest.(check bool) "identical contents keep the map" true (same == map);
  Alcotest.(check int) "and digest nothing" 0 none

let test_malformed_maps_rejected () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ String.escaped s) true
        (Chunking.decode_map s = None))
    [
      "chunk=xyz 10\n";                 (* not a hex digest *)
      "chunk=" ^ String.make 32 'a';    (* missing length *)
      "chunk=" ^ String.make 32 'a' ^ " -5\n";  (* negative length *)
      "banana\n";
    ];
  Alcotest.(check bool) "empty map is valid" true (Chunking.decode_map "" = Some [])

let test_reassemble_missing_chunk () =
  let s = synth 20_000 in
  let chunks = Chunking.split s in
  Alcotest.(check bool) "unresolvable digest yields None" true
    (Chunking.reassemble chunks ~have:(fun _ -> None) ~fetched:(fun _ -> None)
     = None)

let suite =
  List.map QCheck_alcotest.to_alcotest qcheck_props
  @ [
      Alcotest.test_case "one-block edit dirties few chunks" `Quick
        test_boundary_resync;
      Alcotest.test_case "chunk map of a fixed stream is pinned" `Quick test_map_golden;
      Alcotest.test_case "boundaries at the first allowed byte" `Quick
        test_boundaries_at_min_size;
      Alcotest.test_case "content hashes at most once" `Quick test_content_hashes_once;
      Alcotest.test_case "resplit digests about the edited chunk" `Quick
        test_resplit_hashes_the_edit;
      Alcotest.test_case "malformed maps rejected" `Quick
        test_malformed_maps_rejected;
      Alcotest.test_case "reassemble fails closed on missing chunks" `Quick
        test_reassemble_missing_chunk;
    ]
