module Vv = Version_vector

(* The per-replica knowledge map is consulted once per (tombstone, peer)
   pair during GC and updated on every merge; a sorted map keeps that
   logarithmic where the old assoc list went quadratic on wide replica
   sets. *)
module Kmap = Map.Make (Int)

type birth = { b_rid : Ids.replica_id; b_seq : int }

type status = Live | Dead of { death_vv : Vv.t }

type entry = {
  name : string;
  fid : Ids.file_id;
  kind : Aux_attrs.fkind;
  birth : birth;
  status : status;
}

let birth_compare a b =
  match Int.compare a.b_rid b.b_rid with 0 -> Int.compare a.b_seq b.b_seq | c -> c

let birth_equal a b = birth_compare a b = 0

module Birth = struct
  type t = birth

  let compare = birth_compare
end

module Bmap = Map.Make (Birth)
module Bset = Set.Make (Birth)
module Smap = Map.Make (String)

module Fmap = Map.Make (struct
  type t = Ids.file_id

  let compare = Ids.fid_compare
end)

(* Every entry, tombstones included, keyed by birth: the identity the
   OR-set merge unions on and the order [encode] writes.  The two
   indexes hold the births of the {e live} entries only — by plain name
   (a name's collision group, oldest birth first) and by fid — and are
   a pure function of [entries]; [index]/[unindex] keep them in step on
   every local update, [of_entries] rebuilds them after decode and
   merge. *)
type t = {
  entries : entry Bmap.t;
  by_name : Bset.t Smap.t;
  by_fid : Bset.t Fmap.t;
  nlive : int;
  vv : Vv.t;
  known : Vv.t Kmap.t;
}

let is_live e = match e.status with Live -> true | Dead _ -> false

let add_birth b = function None -> Some (Bset.singleton b) | Some s -> Some (Bset.add b s)

let remove_birth b = function
  | None -> None
  | Some s ->
    let s = Bset.remove b s in
    if Bset.is_empty s then None else Some s

let index t e =
  {
    t with
    by_name = Smap.update e.name (add_birth e.birth) t.by_name;
    by_fid = Fmap.update e.fid (add_birth e.birth) t.by_fid;
    nlive = t.nlive + 1;
  }

let unindex t e =
  {
    t with
    by_name = Smap.update e.name (remove_birth e.birth) t.by_name;
    by_fid = Fmap.update e.fid (remove_birth e.birth) t.by_fid;
    nlive = t.nlive - 1;
  }

let of_entries ~vv ~known entries =
  Bmap.fold
    (fun _ e t -> if is_live e then index t e else t)
    entries
    { entries; by_name = Smap.empty; by_fid = Fmap.empty; nlive = 0; vv; known }

let empty rid = of_entries ~vv:Vv.empty ~known:(Kmap.singleton rid Vv.empty) Bmap.empty

let vv t = t.vv
let entries t = List.map snd (Bmap.bindings t.entries)
let live_count t = t.nlive

(* ------------------------------------------------------------------ *)
(* Read-time collision repair: among live entries sharing a name, the
   oldest birth keeps the plain name; younger ones read as
   "name#<rid>.<seq>" (further '#'-extended if even that collides).
   Purely a function of the entry set, so every replica computes the
   same view — no merge-time mutation is needed for convergence.      *)

let effective t e =
  if birth_equal (Bset.min_elt (Smap.find e.name t.by_name)) e.birth then e.name
  else
    let rec fresh candidate =
      if Smap.mem candidate t.by_name then fresh (candidate ^ "#") else candidate
    in
    fresh (Printf.sprintf "%s#%d.%d" e.name e.birth.b_rid e.birth.b_seq)

let live t =
  Bmap.fold (fun _ e acc -> if is_live e then (effective t e, e) :: acc else acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let decode_birth s =
  match String.split_on_char '.' s with
  | [ r; q ] ->
    (match int_of_string_opt r, int_of_string_opt q with
     | Some b_rid, Some b_seq -> Some { b_rid; b_seq }
     | _, _ -> None)
  | _ -> None

(* A plain live name resolves to its group's oldest birth: repaired
   names are never plain names, so nothing else can read as it.  Any
   other name can only be a repaired one, "base#rid.seq" plus the '#'s
   that stepped past plain names; the digits name the one birth it can
   be, and recomputing that entry's effective name settles it. *)
let find_live t name =
  match Smap.find_opt name t.by_name with
  | Some group -> Bmap.find_opt (Bset.min_elt group) t.entries
  | None ->
    let rec stem_len n = if n > 0 && name.[n - 1] = '#' then stem_len (n - 1) else n in
    let n = stem_len (String.length name) in
    let stem = String.sub name 0 n in
    (match String.rindex_opt stem '#' with
     | None -> None
     | Some i ->
       (match decode_birth (String.sub stem (i + 1) (n - i - 1)) with
        | None -> None
        | Some birth ->
          (match Bmap.find_opt birth t.entries with
           | Some e when is_live e && String.equal (effective t e) name -> Some e
           | Some _ | None -> None)))

let find_by_fid t fid =
  match Fmap.find_opt fid t.by_fid with
  | None -> None
  | Some births -> Bmap.find_opt (Bset.min_elt births) t.entries

(* Live entries deduplicated by fid (a hard-linked file appears once),
   in effective-name order.  The unit of work for reconciliation. *)
let live_fids t =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (_, e) ->
      if Hashtbl.mem seen e.fid then None
      else begin
        Hashtbl.replace seen e.fid ();
        Some e
      end)
    (live t)

let find_birth t birth = Bmap.find_opt birth t.entries

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
  else if Bmap.mem birth t.entries then Error Errno.EINVAL
  else if find_live t name <> None then Error Errno.EEXIST
  else
    let t = bump t rid in
    let e = { name; fid; kind; birth; status = Live } in
    Ok (index { t with entries = Bmap.add birth e t.entries } e)

let kill t ~rid birth =
  match find_birth t birth with
  | None | Some { status = Dead _; _ } -> Error Errno.ENOENT
  | Some ({ status = Live; _ } as e) ->
    let t = bump t rid in
    let dead = { e with status = Dead { death_vv = t.vv } } in
    Ok (unindex { t with entries = Bmap.add birth dead t.entries } e)

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

type action =
  | Materialize of entry
  | Unmaterialize of entry
  | Expire of entry

type merge_result = {
  merged : t;
  actions : action list;
  new_collisions : (string * birth list) list;
}

let collided t name =
  match Smap.find_opt name t.by_name with
  | Some group -> not (birth_equal (Bset.min_elt group) (Bset.max_elt group))
  | None -> false

let collisions t =
  Smap.fold
    (fun name group acc -> if collided t name then (name, Bset.elements group) :: acc else acc)
    t.by_name []
  |> List.rev

(* Entry union for one birth held on both sides: a tombstone on either
   side wins. *)
let join local remote =
  match local.status, remote.status with
  | Dead { death_vv = d1 }, Dead { death_vv = d2 } ->
    (* Both sides killed this birth, possibly at divergent vvs.  Join
       the death vectors so the tombstone itself converges byte-wise
       (and GC waits for the later of the two kills). *)
    if Vv.equal d1 d2 then local else { local with status = Dead { death_vv = Vv.merge d1 d2 } }
  | Dead _, _ -> local
  | _, Dead _ -> remote
  | Live, Live -> local

let merge ?(may_expire = fun _ -> true) ~local_rid ~remote_rid ~peers local remote =
  let union = Bmap.union (fun _ l r -> Some (join l r)) local.entries remote.entries in
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
  (* [Bmap.partition] applies the predicate in birth order, so the
     [may_expire] probes run in a deterministic order. *)
  let kept, expired =
    Bmap.partition
      (fun _ e ->
        match e.status with
        | Live -> true
        | Dead { death_vv } -> not (everyone_knows death_vv && may_expire e))
      union
  in
  let merged = of_entries ~vv:merged_vv ~known kept in
  (* Actions: difference between the local live view and the merged one. *)
  let was_live birth =
    match Bmap.find_opt birth local.entries with Some e -> is_live e | None -> false
  in
  let actions =
    Bmap.fold
      (fun _ e acc ->
        match e.status with
        | Live -> if was_live e.birth then acc else Materialize e :: acc
        | Dead _ -> if was_live e.birth then Unmaterialize e :: acc else acc)
      union []
  in
  (* [union] already produced any needed Unmaterialize for these. *)
  let actions = Bmap.fold (fun _ e acc -> Expire e :: acc) expired actions in
  let new_collisions =
    List.filter (fun (name, _) -> not (collided local name)) (collisions merged)
  in
  { merged; actions = List.rev actions; new_collisions }

(* ------------------------------------------------------------------ *)
(* Serialization: line-oriented, names percent-escaped.  Every update
   and merge rewrites the whole file, so [encode] writes each line
   straight into one buffer sized up front and builds no string per
   entry; a name is escaped byte by byte only when it holds one of the
   four escaped bytes.                                                 *)

let escaped = function ' ' | '%' | '\n' | '\t' -> true | _ -> false

(* [String.exists] would allocate a closure per name. *)
let rec has_escaped s i = i < String.length s && (escaped s.[i] || has_escaped s (i + 1))

let hex_digit = "0123456789abcdef"

let add_escaped buf s =
  if not (has_escaped s 0) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        if escaped c then begin
          Buffer.add_char buf '%';
          Buffer.add_char buf hex_digit.[Char.code c lsr 4];
          Buffer.add_char buf hex_digit.[Char.code c land 15]
        end
        else Buffer.add_char buf c)
      s

let unescape = Ctl_name.unescape

(* An upper estimate of the encoded size: fixed fields take at most
   about 48 bytes a line, and a tombstone's death vector a few more. *)
let encoded_size_hint t =
  Bmap.fold
    (fun _ e n -> n + 48 + String.length e.name + match e.status with Live -> 0 | Dead _ -> 16)
    t.entries
    (64 * (1 + Kmap.cardinal t.known))

let encode t =
  let buf = Buffer.create (encoded_size_hint t) in
  Buffer.add_string buf "V ";
  Vv.add_encoded buf t.vv;
  Buffer.add_char buf '\n';
  Kmap.iter
    (fun rid vv ->
      Buffer.add_string buf "K ";
      Vv.add_int buf rid;
      Buffer.add_char buf ' ';
      Vv.add_encoded buf vv;
      Buffer.add_char buf '\n')
    t.known;  (* Kmap iterates in ascending rid order, as the sort did *)
  Bmap.iter
    (fun _ e ->
      Buffer.add_string buf "E ";
      add_escaped buf e.name;
      Buffer.add_char buf ' ';
      Ids.add_fid_hex buf e.fid;
      Buffer.add_char buf ' ';
      Vv.add_int buf e.birth.b_rid;
      Buffer.add_char buf '.';
      Vv.add_int buf e.birth.b_seq;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Aux_attrs.kind_to_string e.kind);
      (match e.status with
       | Live -> Buffer.add_string buf " L\n"
       | Dead { death_vv } ->
         Buffer.add_string buf " D ";
         Vv.add_encoded buf death_vv;
         Buffer.add_char buf '\n'))
    t.entries;
  Buffer.contents buf

let decode_vv_field s = if s = "-" then Some Vv.empty else Vv.decode s

(* A birth is an entry's identity, so a file holding one twice is
   corrupt: rejected rather than silently collapsed to one entry. *)
let decode s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let rec go (entries, vv, known) = function
    | [] -> Some (of_entries ~vv ~known entries)
    | line :: rest ->
      (match String.split_on_char ' ' line with
       | [ "V"; vv ] ->
         (match Vv.decode vv with
          | Some vv -> go (entries, vv, known) rest
          | None -> None)
       | [ "K"; rid; kvv ] ->
         (match int_of_string_opt rid, Vv.decode kvv with
          | Some rid, Some kvv -> go (entries, vv, Kmap.add rid kvv known) rest
          | _, _ -> None)
       | "E" :: name :: fid :: birth :: kind :: status ->
         let parsed =
           match unescape name, Ids.fid_of_hex fid, decode_birth birth, Aux_attrs.kind_of_string kind with
           | Some name, Some fid, Some birth, Some kind ->
             (match status with
              | [ "L" ] -> Some { name; fid; kind; birth; status = Live }
              | [ "D"; dvv ] ->
                (match decode_vv_field dvv with
                 | Some death_vv -> Some { name; fid; kind; birth; status = Dead { death_vv } }
                 | None -> None)
              | _ -> None)
           | _, _, _, _ -> None
         in
         (match parsed with
          | Some e when not (Bmap.mem e.birth entries) ->
            go (Bmap.add e.birth e entries, vv, known) rest
          | Some _ | None -> None)
       | _ -> None)
  in
  go (Bmap.empty, Vv.empty, Kmap.empty) lines

let pp_entry ppf e =
  let status =
    match e.status with
    | Live -> "live"
    | Dead { death_vv } -> Fmt.str "dead@%a" Vv.pp death_vv
  in
  Fmt.pf ppf "%s -> %a [%d.%d %s %s]" e.name Ids.pp_fid e.fid e.birth.b_rid e.birth.b_seq
    (Aux_attrs.kind_to_string e.kind) status
