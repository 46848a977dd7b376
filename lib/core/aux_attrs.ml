type fkind = Freg | Fdir | Fgraft

type t = {
  kind : fkind;
  vv : Version_vector.t;
  uid : int;
  conflict : bool;
  graft_target : Ids.volume_ref option;
  span : int;
  summary : Version_vector.t option;
  digest : string option;
}

let make kind =
  {
    kind;
    vv = Version_vector.empty;
    uid = 0;
    conflict = false;
    graft_target = None;
    span = 0;
    summary = None;
    digest = None;
  }

let kind_to_string = function Freg -> "reg" | Fdir -> "dir" | Fgraft -> "graft"

let kind_of_string = function
  | "reg" -> Some Freg
  | "dir" -> Some Fdir
  | "graft" -> Some Fgraft
  | _ -> None

let kind_to_vtype = function
  | Freg -> Vnode.VREG
  | Fdir -> Vnode.VDIR
  | Fgraft -> Vnode.VGRAFT

let encode t =
  let lines =
    [
      "kind=" ^ kind_to_string t.kind;
      "vv=" ^ Version_vector.encode t.vv;
      "uid=" ^ string_of_int t.uid;
      "conflict=" ^ (if t.conflict then "1" else "0");
    ]
    @ (match t.graft_target with
       | None -> []
       | Some v -> [ "graft=" ^ Ids.vref_to_string v ])
    @ (if t.span = 0 then [] else [ Printf.sprintf "span=%d" t.span ])
    @ (match t.summary with
       | None -> []
       | Some s -> [ "summary=" ^ Version_vector.encode s ])
    @ (match t.digest with None -> [] | Some d -> [ "digest=" ^ d ])
  in
  String.concat "\n" lines ^ "\n"

let fields s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | None -> None
         | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))

let decode s =
  let fields = fields s in
  let find k = List.assoc_opt k fields in
  match find "kind", find "vv", find "uid", find "conflict" with
  | Some kind, Some vv, Some uid, Some conflict ->
    (match kind_of_string kind, Version_vector.decode vv, int_of_string_opt uid with
     | Some kind, Some vv, Some uid ->
       let graft_target = Option.bind (find "graft") Ids.vref_of_string in
       let span =
         match find "span" with
         | None -> 0
         | Some s -> Option.value ~default:0 (int_of_string_opt s)
       in
       let summary =
         match find "summary" with None -> None | Some s -> Version_vector.decode s
       in
       let digest = find "digest" in
       Some { kind; vv; uid; conflict = conflict = "1"; graft_target; span; summary; digest }
     | _, _, _ -> None)
  | _, _, _, _ -> None

let ( let* ) = Result.bind

let load ~dir fid =
  let* payload = Shadow.load_record ~dir (Ids.aux_name fid) in
  match decode payload with None -> Error Errno.EIO | Some t -> Ok t

let store ~dir fid t = Shadow.store_record ~dir (Ids.aux_name fid) (encode t)
