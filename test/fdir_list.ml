(* The list-based directory representation the map-based {!Fdir}
   replaced, kept as the test oracle: entries in one birth-sorted list,
   every lookup a scan of the rebuilt effective-name view.  It shares
   Fdir's entry types, so results compare directly. *)

module Vv = Version_vector
module Kmap = Fdir.Kmap

type birth = Fdir.birth = { b_rid : Ids.replica_id; b_seq : int }

type status = Fdir.status = Live | Dead of { death_vv : Vv.t }

type entry = Fdir.entry = {
  name : string;
  fid : Ids.file_id;
  kind : Aux_attrs.fkind;
  birth : birth;
  status : status;
}

type t = {
  entries : entry list;
  vv : Vv.t;
  known : Vv.t Kmap.t;
}

let birth_compare a b =
  match Int.compare a.b_rid b.b_rid with 0 -> Int.compare a.b_seq b.b_seq | c -> c

let birth_equal a b = birth_compare a b = 0

let empty rid = { entries = []; vv = Vv.empty; known = Kmap.singleton rid Vv.empty }

let is_live e = match e.status with Live -> true | Dead _ -> false

let sort_entries entries = List.sort (fun a b -> birth_compare a.birth b.birth) entries

(* ------------------------------------------------------------------ *)
(* Read-time collision repair: among live entries sharing a name, the
   oldest birth keeps the plain name; younger ones read as
   "name#<rid>.<seq>" (further '#'-extended if even that collides).
   Purely a function of the entry set, so every replica computes the
   same view — no merge-time mutation is needed for convergence.      *)

let live t =
  let live_entries = List.filter is_live t.entries in
  let plain_names =
    List.fold_left (fun acc e -> e.name :: acc) [] live_entries
    |> List.sort_uniq String.compare
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let current = Option.value ~default:[] (Hashtbl.find_opt by_name e.name) in
      Hashtbl.replace by_name e.name (e :: current))
    live_entries;
  let effective e =
    match Hashtbl.find_opt by_name e.name with
    | Some [ _ ] | None -> e.name
    | Some group ->
      let winner =
        List.fold_left (fun acc c -> if birth_compare c.birth acc.birth < 0 then c else acc)
          (List.hd group) group
      in
      if birth_equal winner.birth e.birth then e.name
      else
        let rec fresh candidate =
          if List.mem candidate plain_names then fresh (candidate ^ "#") else candidate
        in
        fresh (Printf.sprintf "%s#%d.%d" e.name e.birth.b_rid e.birth.b_seq)
  in
  List.map (fun e -> (effective e, e)) live_entries
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_live t name =
  List.find_map (fun (n, e) -> if n = name then Some e else None) (live t)

let find_by_fid t fid =
  List.find_opt (fun e -> is_live e && Ids.fid_equal e.fid fid) t.entries

(* Live entries deduplicated by fid (a hard-linked file appears once),
   in effective-name order.  The unit of work for reconciliation. *)
let live_fids t =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (_, e) ->
      let k = Ids.fid_to_hex e.fid in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.replace seen k ();
        Some e
      end)
    (live t)

let find_birth t birth = List.find_opt (fun e -> birth_equal e.birth birth) t.entries

(* ------------------------------------------------------------------ *)
(* Local updates                                                       *)

let bump t rid =
  let vv = Vv.bump t.vv rid in
  let known = Kmap.add rid vv t.known in
  { t with vv; known }

let valid_name name =
  name <> "" && String.length name <= 200 && not (String.contains name '/')
  && not (Ctl_name.is_ctl name)
  && name.[0] <> '@'

let add t ~rid ~name ~fid ~kind ~birth =
  if not (valid_name name) then Error Errno.EINVAL
  else if find_birth t birth <> None then Error Errno.EINVAL
  else if find_live t name <> None then Error Errno.EEXIST
  else
    let t = bump t rid in
    let e = { name; fid; kind; birth; status = Live } in
    Ok { t with entries = sort_entries (e :: t.entries) }

let kill t ~rid birth =
  match find_birth t birth with
  | None -> Error Errno.ENOENT
  | Some e ->
    (match e.status with
     | Dead _ -> Error Errno.ENOENT
     | Live ->
       let t = bump t rid in
       let dead = { e with status = Dead { death_vv = t.vv } } in
       let entries =
         List.map (fun e' -> if birth_equal e'.birth birth then dead else e') t.entries
       in
       Ok { t with entries })

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

type action = Fdir.action =
  | Materialize of entry
  | Unmaterialize of entry
  | Expire of entry

type merge_result = {
  merged : t;
  actions : action list;
  new_collisions : (string * birth list) list;
}

let collisions t =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if is_live e then
        Hashtbl.replace groups e.name
          (e.birth :: Option.value ~default:[] (Hashtbl.find_opt groups e.name)))
    t.entries;
  Hashtbl.fold
    (fun name births acc ->
      if List.length births > 1 then (name, List.sort birth_compare births) :: acc else acc)
    groups []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge ?(may_expire = fun _ -> true) ~local_rid ~remote_rid ~peers local remote =
  (* Entry union: a tombstone on either side wins for its birth. *)
  let table = Hashtbl.create 32 in
  let note e =
    let key = (e.birth.b_rid, e.birth.b_seq) in
    match Hashtbl.find_opt table key with
    | None -> Hashtbl.replace table key e
    | Some prev ->
      let chosen =
        match prev.status, e.status with
        | Dead { death_vv = d1 }, Dead { death_vv = d2 } ->
          (* Both sides killed this birth, possibly at divergent vvs.
             Join the death vectors so the tombstone itself converges
             byte-wise (and GC waits for the later of the two kills). *)
          if Vv.equal d1 d2 then prev
          else { prev with status = Dead { death_vv = Vv.merge d1 d2 } }
        | Dead _, _ -> prev
        | _, Dead _ -> e
        | Live, Live -> prev
      in
      Hashtbl.replace table key chosen
  in
  List.iter note local.entries;
  List.iter note remote.entries;
  let union = Hashtbl.fold (fun _ e acc -> e :: acc) table [] |> sort_entries in
  (* Gossip the knowledge map.  The remote replica has reached its own
     vv; we are about to reach the merged vv. *)
  let merged_vv = Vv.merge local.vv remote.vv in
  let known_of m rid = Option.value ~default:Vv.empty (Kmap.find_opt rid m.known) in
  let known =
    (* Pointwise merge of the two knowledge maps… *)
    Kmap.merge
      (fun _rid l r ->
        match l, r with
        | Some l, Some r -> Some (Vv.merge l r)
        | (Some _ as v), None | None, (Some _ as v) -> v
        | None, None -> None)
      local.known remote.known
    (* …then fold in what this very merge proves: the remote has reached
       its own vv, we are about to reach the merged vv, and every listed
       peer at least has an (empty) row. *)
    |> fun m ->
    List.fold_left
      (fun m rid ->
        if Kmap.mem rid m then m else Kmap.add rid Vv.empty m)
      m peers
    |> Kmap.add remote_rid (Vv.merge (known_of remote remote_rid |> Vv.merge (known_of local remote_rid)) remote.vv)
    |> Kmap.add local_rid (Vv.merge (known_of local local_rid |> Vv.merge (known_of remote local_rid)) merged_vv)
  in
  (* Tombstone GC: drop tombstones every peer is known to have applied. *)
  let everyone_knows death_vv =
    List.for_all
      (fun rid -> Vv.dominates (Option.value ~default:Vv.empty (Kmap.find_opt rid known)) death_vv)
      peers
  in
  let kept, expired =
    List.partition
      (fun e ->
        match e.status with
        | Live -> true
        | Dead { death_vv } -> not (everyone_knows death_vv && may_expire e))
      union
  in
  let merged = { entries = kept; vv = merged_vv; known } in
  (* Actions: difference between the local live view and the merged one. *)
  let was_live birth entries =
    List.exists (fun e -> birth_equal e.birth birth && is_live e) entries
  in
  let actions = ref [] in
  List.iter
    (fun e ->
      match e.status with
      | Live ->
        if not (was_live e.birth local.entries) then actions := Materialize e :: !actions
      | Dead _ ->
        if was_live e.birth local.entries then actions := Unmaterialize e :: !actions)
    union;
  (* [union] already produced any needed Unmaterialize for these. *)
  List.iter (fun e -> actions := Expire e :: !actions) expired;
  let local_collisions = collisions local in
  let new_collisions =
    List.filter (fun (name, _) -> not (List.mem_assoc name local_collisions)) (collisions merged)
  in
  { merged; actions = List.rev !actions; new_collisions }

(* ------------------------------------------------------------------ *)
(* Serialization: line-oriented, names percent-escaped.                *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '%' | '\n' | '\t' -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let encode t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "V %s\n" (Vv.encode t.vv));
  Kmap.iter
    (fun rid vv -> Buffer.add_string buf (Printf.sprintf "K %d %s\n" rid (Vv.encode vv)))
    t.known;  (* Kmap iterates in ascending rid order, as the sort did *)
  List.iter
    (fun e ->
      let status =
        match e.status with
        | Live -> "L"
        | Dead { death_vv } -> Printf.sprintf "D %s" (Vv.encode death_vv)
      in
      Buffer.add_string buf
        (Printf.sprintf "E %s %s %d.%d %s %s\n" (escape e.name) (Ids.fid_to_hex e.fid)
           e.birth.b_rid e.birth.b_seq
           (Aux_attrs.kind_to_string e.kind)
           status))
    t.entries;
  Buffer.contents buf
