type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let add t name n = cell t name := !(cell t name) + n

let incr t name = add t name 1

let get t name = match Hashtbl.find_opt t name with None -> 0 | Some r -> !r

let reset t = Hashtbl.iter (fun _ r -> r := 0) t

let snapshot t =
  Hashtbl.fold (fun name r acc -> if !r = 0 then acc else (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  let lookup name l = match List.assoc_opt name l with None -> 0 | Some n -> n in
  let names = List.sort_uniq String.compare (List.map fst before @ List.map fst after) in
  List.filter_map
    (fun name ->
      let d = lookup name after - lookup name before in
      if d = 0 then None else Some (name, d))
    names
