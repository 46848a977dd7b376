type allocator_id = int
type volume_id = int
type replica_id = int

type file_id = { issuer : replica_id; uniq : int }

type volume_ref = { alloc : allocator_id; vol : volume_id }

type replica_ref = { vref : volume_ref; rid : replica_id }

type handle = { volume : volume_ref; file : file_id; replica : replica_id }

let root_fid = { issuer = 0; uniq = 1 }

let fid_equal a b = a.issuer = b.issuer && a.uniq = b.uniq

let fid_compare a b =
  match Int.compare a.issuer b.issuer with 0 -> Int.compare a.uniq b.uniq | c -> c

let vref_equal a b = a.alloc = b.alloc && a.vol = b.vol

let vref_to_string v = Printf.sprintf "%d.%d" v.alloc v.vol

let vref_of_string s =
  match String.split_on_char '.' s with
  | [ a; v ] ->
    (match int_of_string_opt a, int_of_string_opt v with
     | Some alloc, Some vol -> Some { alloc; vol }
     | _, _ -> None)
  | _ -> None

(* [n]'s lowercase hex digits, at least [width] of them, as [%0*x]
   prints them (a negative [n] as its unsigned 63-bit pattern). *)
let rec add_hex buf n width =
  if width > 1 || n lsr 4 <> 0 then add_hex buf (n lsr 4) (width - 1);
  Buffer.add_char buf "0123456789abcdef".[n land 15]

let add_fid_hex buf fid =
  add_hex buf fid.issuer 8;
  Buffer.add_char buf '.';
  add_hex buf fid.uniq 8

let fid_to_hex fid =
  let buf = Buffer.create 17 in
  add_fid_hex buf fid;
  Buffer.contents buf

let fid_of_hex s =
  if String.length s <> 17 || s.[8] <> '.' then None
  else
    let hex part = int_of_string_opt ("0x" ^ part) in
    match hex (String.sub s 0 8), hex (String.sub s 9 8) with
    | Some issuer, Some uniq -> Some { issuer; uniq }
    | _, _ -> None

let fid_to_at_name fid = "@" ^ fid_to_hex fid

let fid_of_at_name s =
  if String.length s = 18 && s.[0] = '@' then fid_of_hex (String.sub s 1 17) else None

let fidpath_to_string fids = String.concat "/" (List.map fid_to_hex fids)

let fidpath_of_string s =
  if s = "" then Some []
  else
    let rec parse acc = function
      | [] -> Some (List.rev acc)
      | part :: rest ->
        (match fid_of_hex part with
         | None -> None
         | Some fid -> parse (fid :: acc) rest)
    in
    parse [] (String.split_on_char '/' s)

let aux_name fid = fid_to_hex fid ^ ".aux"

let pp_fid ppf fid = Fmt.pf ppf "%s" (fid_to_hex fid)
let pp_vref ppf v = Fmt.pf ppf "vol<%d.%d>" v.alloc v.vol
