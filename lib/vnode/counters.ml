(* A view's cell points at the same-named cell of its parent set, so one
   increment lands in the view and in every set above it: the parent
   sees the sum of its views for one more integer add per level, with
   no second lookup. *)
type cell = { mutable n : int; up : cell option }

type t = { cells : (string, cell) Hashtbl.t; parent : t option }

let create () = { cells = Hashtbl.create 16; parent = None }

let child parent = { cells = Hashtbl.create 16; parent = Some parent }

let rec cell t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
    let c = { n = 0; up = Option.map (fun p -> cell p name) t.parent } in
    Hashtbl.add t.cells name c;
    c

let rec bump c n =
  c.n <- c.n + n;
  match c.up with Some u -> bump u n | None -> ()

let add t name n = bump (cell t name) n

let incr t name = add t name 1

let get t name = match Hashtbl.find_opt t.cells name with None -> 0 | Some c -> c.n

(* In place, so every link into these cells survives. *)
let reset t = Hashtbl.iter (fun _ c -> c.n <- 0) t.cells

let snapshot t =
  Hashtbl.fold (fun name c acc -> if c.n = 0 then acc else (name, c.n) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  let lookup name l = match List.assoc_opt name l with None -> 0 | Some n -> n in
  let names = List.sort_uniq String.compare (List.map fst before @ List.map fst after) in
  List.filter_map
    (fun name ->
      let d = lookup name after - lookup name before in
      if d = 0 then None else Some (name, d))
    names
