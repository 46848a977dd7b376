(* The UFS's whole-directory encoder, which its in-place editor
   replaced, kept as the test oracle, with the entry-list edits the
   editor stands for: an image the editor writes must be what
   [serialize_dir] makes of the edited list. *)

let serialize_dir entries =
  let size = List.fold_left (fun n (name, _, _) -> n + 6 + String.length name) 6 entries in
  let b = Bytes.make size '\000' in
  let emit pos (name, inum, kind) =
    let len = String.length name in
    Codec.set_u32 b pos inum;
    Codec.set_u8 b (pos + 4) (match kind with Ufs.Reg -> 1 | Ufs.Dir -> 2);
    Codec.set_u8 b (pos + 5) len;
    Bytes.blit_string name 0 b (pos + 6) len;
    pos + 6 + len
  in
  (* The last 6 bytes stay zero: the terminator. *)
  ignore (List.fold_left emit 0 entries : int);
  Bytes.unsafe_to_string b

(* What a directory holding [entries] stores: nothing when empty. *)
let image entries = if entries = [] then "" else serialize_dir entries

let append entries e = entries @ [ e ]
let drop entries name = List.filter (fun (n, _, _) -> n <> name) entries
let rename entries s d = List.map (fun (n, i, k) -> if n = s then (d, i, k) else (n, i, k)) entries

(* A rename over [d]: its first record takes the source's inode and kind
   where it stands, its later records and every record of [s] go. *)
let retarget entries s d inum kind =
  let rec go taken = function
    | [] -> []
    | (n, _, _) :: rest when n = d ->
      if taken then go true rest else (d, inum, kind) :: go true rest
    | (n, _, _) :: rest when n = s -> go taken rest
    | e :: rest -> e :: go taken rest
  in
  go false entries

(* The name index of [entries]: the first inode of each name, sorted. *)
let index entries =
  List.fold_left
    (fun acc (n, i, _) -> if List.mem_assoc n acc then acc else (n, i) :: acc)
    [] entries
  |> List.sort compare
