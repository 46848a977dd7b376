(* Version vectors (Parker et al. 1983).  Represented as an int-keyed map
   holding only strictly-positive counts, so absent replicas cost nothing.
   Structural equality of the map does NOT coincide with vector equality:
   the balanced tree's shape depends on insertion order, so two maps with
   the same bindings can differ under [=].  Compare with [equal], or
   compare the canonical [to_string]. *)

module Imap = Map.Make (Int)

type replica_id = int

type t = int Imap.t

let empty = Imap.empty

let check_count n =
  if n < 0 then invalid_arg "Version_vector: negative update count"

let singleton r n =
  check_count n;
  if n = 0 then Imap.empty else Imap.singleton r n

let of_list bindings =
  let add acc (r, n) =
    check_count n;
    if n = 0 then Imap.remove r acc else Imap.add r n acc
  in
  List.fold_left add Imap.empty bindings

let to_list v = Imap.bindings v

let get v r = match Imap.find_opt r v with None -> 0 | Some n -> n

let bump v r = Imap.add r (get v r + 1) v

let merge a b =
  let keep_max _ x y = Some (max x y) in
  Imap.union keep_max a b

let sum v = Imap.fold (fun _ n acc -> acc + n) v 0

type comparison = Equal | Dominates | Dominated | Concurrent

(* Compare by scanning the union of keys once, tracking whether the left
   side ever exceeds the right and vice versa. *)
let compare_vv a b =
  let left_gt = ref false and right_gt = ref false in
  let examine _ x y =
    let x = match x with None -> 0 | Some n -> n in
    let y = match y with None -> 0 | Some n -> n in
    if x > y then left_gt := true;
    if y > x then right_gt := true;
    None
  in
  let (_ : int Imap.t) = Imap.merge examine a b in
  match !left_gt, !right_gt with
  | false, false -> Equal
  | true, false -> Dominates
  | false, true -> Dominated
  | true, true -> Concurrent

let dominates a b =
  match compare_vv a b with Equal | Dominates -> true | Dominated | Concurrent -> false

let concurrent a b = compare_vv a b = Concurrent

let equal a b = Imap.equal Int.equal a b

let pp ppf v =
  let pp_binding ppf (r, n) = Fmt.pf ppf "r%d:%d" r n in
  Fmt.pf ppf "<%a>" Fmt.(list ~sep:(any " ") pp_binding) (to_list v)

let to_string v = Fmt.str "%a" pp v

(* Digits of a non-positive [m], most significant first: counting down
   from zero covers [min_int] without overflow. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_encoded buf v =
  let first = ref true in
  Imap.iter
    (fun r n ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      add_int buf r;
      Buffer.add_char buf ':';
      add_int buf n)
    v

let encode v =
  let buf = Buffer.create 16 in
  add_encoded buf v;
  Buffer.contents buf

let decode s =
  if String.trim s = "" then Some empty
  else
    let parse_binding acc part =
      match acc with
      | None -> None
      | Some bindings ->
        (match String.split_on_char ':' part with
         | [r; n] ->
           (match int_of_string_opt r, int_of_string_opt n with
            | Some r, Some n when n >= 0 -> Some ((r, n) :: bindings)
            | _, _ -> None)
         | _ -> None)
    in
    match List.fold_left parse_binding (Some []) (String.split_on_char ',' s) with
    | None -> None
    | Some bindings -> Some (of_list bindings)
