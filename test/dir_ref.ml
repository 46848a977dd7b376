(* The entry-list edits the UFS's directory editor stands for: the model
   that the directory law compares [Ufs.parse_dir] and [Ufs.dir_index]
   against, both name-sorted, since the editor puts a new entry in the
   first record with room. *)

let append entries e = entries @ [ e ]
let drop entries name = List.filter (fun (n, _, _) -> n <> name) entries
let rename entries s d = List.map (fun (n, i, k) -> if n = s then (d, i, k) else (n, i, k)) entries

(* A rename over [d]: its entry takes the source's inode and kind, and
   [s]'s entry goes. *)
let retarget entries s d inum kind =
  List.filter_map
    (fun ((n, _, _) as e) -> if n = d then Some (d, inum, kind) else if n = s then None else Some e)
    entries

let sorted entries = List.sort compare entries

(* The name index of [entries]: each name's inode, sorted. *)
let index entries = List.sort compare (List.map (fun (n, i, _) -> (n, i)) entries)
