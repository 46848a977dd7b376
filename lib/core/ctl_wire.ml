module Vv = Version_vector

type version_info = {
  vi_kind : Aux_attrs.fkind;
  vi_vv : Vv.t;
  vi_size : int;
  vi_uid : int;
  vi_stored : bool;
  vi_span : int;
  vi_summary : Vv.t option;
}

type dir_versions = {
  dv_summary : Vv.t option;
  dv_filtered : Ids.file_id list option;
  dv_fdir : Fdir.t;
  dv_children : (Ids.file_id * version_info) list;
}

let ( let* ) = Result.bind

let or_eio = function Some x -> Ok x | None -> Error Errno.EIO

(* ---------------- getvv ---------------- *)

let add_line buf key add v =
  Buffer.add_string buf key;
  add buf v;
  Buffer.add_char buf '\n'

let add_version_info buf vi =
  add_line buf "kind=" Buffer.add_string (Aux_attrs.kind_to_string vi.vi_kind);
  add_line buf "vv=" Vv.add_encoded vi.vi_vv;
  add_line buf "size=" Vv.add_int vi.vi_size;
  add_line buf "uid=" Vv.add_int vi.vi_uid;
  Buffer.add_string buf (if vi.vi_stored then "stored=1\n" else "stored=0\n");
  add_line buf "span=" Vv.add_int vi.vi_span;
  Option.iter (add_line buf "summary=" Vv.add_encoded) vi.vi_summary

let encode_version_info vi =
  let buf = Buffer.create 96 in
  add_version_info buf vi;
  Buffer.contents buf

let version_info_of_fields fields =
  let find k = List.assoc_opt k fields in
  let int k = Option.bind (find k) int_of_string_opt in
  match
    Option.bind (find "kind") Aux_attrs.kind_of_string, Option.bind (find "vv") Vv.decode,
    int "size", int "uid", find "stored", int "span"
  with
  | Some vi_kind, Some vi_vv, Some vi_size, Some vi_uid, Some stored, Some vi_span ->
    Ok
      {
        vi_kind;
        vi_vv;
        vi_size;
        vi_uid;
        vi_stored = stored = "1";
        vi_span;
        vi_summary = Option.bind (find "summary") Vv.decode;
      }
  | _ -> Error Errno.EIO

let decode_version_info s = version_info_of_fields (Aux_attrs.fields s)

(* ---------------- readfile / getchunkmap ---------------- *)

(* Both replies are a header of [key=value] lines, a "--" line, then a
   body.  The header ends at the first "\n--\n": hop from newline to
   newline instead of re-comparing the separator at every byte. *)
let split_header reply =
  let n = String.length reply in
  let rec go i =
    match String.index_from_opt reply i '\n' with
    | None -> Error Errno.EIO
    | Some j ->
      if j + 3 < n && reply.[j + 1] = '-' && reply.[j + 2] = '-' && reply.[j + 3] = '\n' then
        Ok (Aux_attrs.fields (String.sub reply 0 j), String.sub reply (j + 4) (n - j - 4))
      else go (j + 1)
  in
  if n = 0 then Error Errno.EIO else go 0

let encode_file vi data = encode_version_info vi ^ "--\n" ^ data

let decode_file reply =
  let* fields, data = split_header reply in
  let* vi = version_info_of_fields fields in
  Ok (vi, data)

let encode_chunk_map vi ~digest chunks =
  encode_version_info vi ^ "digest=" ^ digest ^ "\n--\n" ^ Chunking.encode_map chunks

let decode_chunk_map reply =
  let* fields, body = split_header reply in
  let* vi = version_info_of_fields fields in
  let* digest = or_eio (List.assoc_opt "digest" fields) in
  let* chunks = or_eio (Chunking.decode_map body) in
  Ok (vi, digest, chunks)

(* ---------------- readchunks ---------------- *)

let encode_chunks bodies =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (digest, body) ->
      Buffer.add_string buf (Printf.sprintf "chunk=%s %d\n" digest (String.length body));
      Buffer.add_string buf body;
      Buffer.add_char buf '\n')
    bodies;
  Buffer.contents buf

let decode_chunks reply =
  let n = String.length reply in
  let rec go acc i =
    if i >= n then Ok (List.rev acc)
    else
      let* j = or_eio (String.index_from_opt reply i '\n') in
      let line = String.sub reply i (j - i) in
      let* sp =
        if String.length line > 6 && String.sub line 0 6 = "chunk=" then
          or_eio (String.index_opt line ' ')
        else Error Errno.EIO
      in
      let digest = String.sub line 6 (sp - 6) in
      match int_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
      | Some len when len >= 0 && j + 1 + len <= n ->
        let body = String.sub reply (j + 1) len in
        (* Verify before trusting: a corrupt or mismatched body must not
           be assembled into the shadow file. *)
        if Chunking.digest_hex body <> digest then Error Errno.EIO
        else go ((digest, body) :: acc) (j + 1 + len + 1)
      | Some _ | None -> Error Errno.EIO
  in
  go [] 0

(* ---------------- getdirvvs ---------------- *)

let add_fids buf fids =
  List.iteri
    (fun i fid ->
      if i > 0 then Buffer.add_char buf ',';
      Ids.add_fid_hex buf fid)
    fids

let encode_dir_versions ~summary ~filtered ~fdir children =
  let buf = Buffer.create (String.length fdir + 64 + (128 * List.length children)) in
  Option.iter (add_line buf "summary=" Vv.add_encoded) summary;
  Option.iter (add_line buf "filtered=" add_fids) filtered;
  Buffer.add_string buf "fdir:\n";
  Buffer.add_string buf fdir;
  Buffer.add_string buf "endfdir:\n";
  List.iter
    (fun (fid, vi) ->
      add_line buf "child=" Ids.add_fid_hex fid;
      add_version_info buf vi)
    children;
  Buffer.contents buf

(* Whether the line starting at [i] reads exactly [marker]. *)
let line_is reply i marker =
  let m = String.length marker and n = String.length reply in
  let rec same k = k = m || (reply.[i + k] = marker.[k] && same (k + 1)) in
  i + m <= n && (i + m = n || reply.[i + m] = '\n') && same 0

(* The start of the first line at or after [i] that reads [marker]. *)
let rec find_line reply marker i =
  if i > String.length reply then None
  else if line_is reply i marker then Some i
  else
    match String.index_from_opt reply i '\n' with
    | None -> None
    | Some j -> find_line reply marker (j + 1)

(* The [filtered=] header field: absent, or the failed children. *)
let filtered_of_field = function
  | None -> Ok None
  | Some "" -> Ok (Some [])
  | Some fids ->
    let parsed = List.map Ids.fid_of_hex (String.split_on_char ',' fids) in
    if List.exists Option.is_none parsed then Error Errno.EIO
    else Ok (Some (List.filter_map Fun.id parsed))

(* The [fdir:] section is decoded as the one slice of the reply between
   its framing lines; the header before it and the child blocks after it
   are key=value lines. *)
let decode_dir_versions reply =
  let n = String.length reply in
  let* start = or_eio (find_line reply "fdir:" 0) in
  let body = start + String.length "fdir:\n" in
  let* stop = or_eio (find_line reply "endfdir:" body) in
  let* dv_fdir = or_eio (Fdir.decode (String.sub reply body (stop - body))) in
  let header = Aux_attrs.fields (String.sub reply 0 (max 0 (start - 1))) in
  let dv_summary = Option.bind (List.assoc_opt "summary" header) Vv.decode in
  let* dv_filtered = filtered_of_field (List.assoc_opt "filtered" header) in
  let tail = stop + String.length "endfdir:\n" in
  let rest =
    if tail >= n then [] else String.split_on_char '\n' (String.sub reply tail (n - tail))
  in
  let is_child l = String.length l > 6 && String.sub l 0 6 = "child=" in
  let finish acc = function
    | None, _ -> Ok acc
    | Some fid, block ->
      let* vi = version_info_of_fields (Aux_attrs.fields (String.concat "\n" (List.rev block))) in
      Ok ((fid, vi) :: acc)
  in
  let rec children acc cur = function
    | [] ->
      let* acc = finish acc cur in
      Ok (List.rev acc)
    | l :: rest when is_child l ->
      let* acc = finish acc cur in
      let* fid = or_eio (Ids.fid_of_hex (String.sub l 6 (String.length l - 6))) in
      children acc (Some fid, []) rest
    | l :: rest ->
      (match cur with
       | None, _ -> children acc cur rest (* stray blank line *)
       | Some fid, block -> children acc (Some fid, l :: block) rest)
  in
  let* dv_children = children [] (None, []) rest in
  Ok { dv_summary; dv_filtered; dv_fdir; dv_children }

(* ---------------- resolve / peers / meta ---------------- *)

let encode_resolve fid kind =
  Printf.sprintf "fid=%s\nkind=%s\n" (Ids.fid_to_hex fid) (Aux_attrs.kind_to_string kind)

let decode_resolve reply =
  let fields = Aux_attrs.fields reply in
  match
    Option.bind (List.assoc_opt "fid" fields) Ids.fid_of_hex,
    Option.bind (List.assoc_opt "kind" fields) Aux_attrs.kind_of_string
  with
  | Some fid, Some kind -> Ok (fid, kind)
  | _, _ -> Error Errno.EIO

let peer_of_string part =
  match String.index_opt part '@' with
  | None -> None
  | Some i ->
    Option.map
      (fun r -> (r, String.sub part (i + 1) (String.length part - i - 1)))
      (int_of_string_opt (String.sub part 0 i))

let peers_to_string peers =
  String.concat "," (List.map (fun (r, h) -> Printf.sprintf "%d@%s" r h) peers)

let peers_of_string s =
  if s = "" then Some []
  else
    let parsed = List.map peer_of_string (String.split_on_char ',' s) in
    if List.exists Option.is_none parsed then None else Some (List.filter_map Fun.id parsed)

let encode_peers peers = peers_to_string peers ^ "\n"
let decode_peers reply = or_eio (peers_of_string (String.trim reply))

let encode_meta vref rid = Printf.sprintf "vref=%s\nrid=%d\n" (Ids.vref_to_string vref) rid

let decode_meta reply =
  let fields = Aux_attrs.fields reply in
  match
    Option.bind (List.assoc_opt "vref" fields) Ids.vref_of_string,
    Option.bind (List.assoc_opt "rid" fields) int_of_string_opt
  with
  | Some vref, Some rid -> Ok (vref, rid)
  | _, _ -> Error Errno.EIO
