type connector =
  host:string -> vref:Ids.volume_ref -> rid:Ids.replica_id -> (Vnode.t, Errno.t) result

let ( let* ) = Result.bind

let walk root path =
  let rec go v = function
    | [] -> Ok v
    | fid :: rest ->
      let* child = v.Vnode.lookup (Ids.fid_to_at_name fid) in
      go child rest
  in
  go root path

(* Control requests must evade the NFS client's name-lookup cache: a
   repeated lookup of the same encoded name would be answered with the
   cached (stale) response vnode (the "unexpected behavior" of paper
   §2.2).  A per-call serial number, counted in the caller's {!Obs.t}
   (one per cluster), makes every request name unique. *)
(* The sized variant also reports the bytes the exchange put on the wire
   (request name + response body — the walk to the parent directory is
   not charged), so callers can account transfer costs honestly. *)
let ctl_sized ~obs dir ~op ~args =
  obs.Obs.ctl_serial <- obs.Obs.ctl_serial + 1;
  let args = args @ [ Printf.sprintf "n%d" obs.Obs.ctl_serial ] in
  let* name = Ctl_name.encode ~op ~args in
  let* response_vnode = dir.Vnode.lookup name in
  let* body = Vnode.read_all response_vnode in
  Ok (body, String.length name + String.length body)

let ctl ~obs dir ~op ~args =
  let* body, _wire = ctl_sized ~obs dir ~op ~args in
  Ok body

(* A control op addressed to [path]: issued on the parent directory with
   the final component as "@hex" argument, or on the root with ".";
   [extra] args follow the target. *)
let ctl_at_sized ~obs root path ~op ~extra =
  match List.rev path with
  | [] -> ctl_sized ~obs root ~op ~args:("." :: extra)
  | fid :: rev_parent ->
    let* parent = walk root (List.rev rev_parent) in
    ctl_sized ~obs parent ~op ~args:(Ids.fid_to_at_name fid :: extra)

let ctl_at ~obs root path ~op =
  let* body, _wire = ctl_at_sized ~obs root path ~op ~extra:[] in
  Ok body

let parse_fields s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | None -> None
         | Some i ->
           Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))

let parse_kind = function
  | "reg" -> Some Aux_attrs.Freg
  | "dir" -> Some Aux_attrs.Fdir
  | "graft" -> Some Aux_attrs.Fgraft
  | _ -> None

let parse_version_info s =
  let fields = parse_fields s in
  let find k = List.assoc_opt k fields in
  match find "kind", find "vv", find "size", find "uid", find "stored" with
  | Some kind, Some vv, Some size, Some uid, Some stored ->
    (match
       parse_kind kind, Version_vector.decode vv, int_of_string_opt size,
       int_of_string_opt uid
     with
     | Some vi_kind, Some vv, Some size, Some uid ->
       (* "span" is absent in responses from pre-tracing servers. *)
       let vi_span =
         match find "span" with
         | None -> 0
         | Some s -> Option.value ~default:0 (int_of_string_opt s)
       in
       (* Likewise "summary" is absent from pre-summary servers (and for
          regular files); [None] tells the reconciler it cannot prune. *)
       let vi_summary =
         match find "summary" with None -> None | Some s -> Version_vector.decode s
       in
       Ok
         {
           Physical.vi_kind;
           vi_vv = vv;
           vi_size = size;
           vi_uid = uid;
           vi_stored = stored = "1";
           vi_span;
           vi_summary;
         }
     | _, _, _, _ -> Error Errno.EIO)
  | _, _, _, _, _ -> Error Errno.EIO

let get_version ~obs root path =
  let* response = ctl_at ~obs root path ~op:"getvv" in
  parse_version_info response

(* First occurrence of "\n--\n" at or after [i]: hop from newline to
   newline instead of re-comparing the whole separator at every byte. *)
let find_sep response i =
  let n = String.length response in
  let rec go i =
    match String.index_from_opt response i '\n' with
    | None -> None
    | Some j ->
      if j + 3 < n && response.[j + 1] = '-' && response.[j + 2] = '-'
         && response.[j + 3] = '\n'
      then Some j
      else go (j + 1)
  in
  if i >= n then None else go i

let fetch_file_sized ~obs root path =
  let* response, wire = ctl_at_sized ~obs root path ~op:"readfile" ~extra:[] in
  (* Header lines, then a "--" separator line, then the raw contents. *)
  match find_sep response 0 with
  | None -> Error Errno.EIO
  | Some i ->
    let header = String.sub response 0 i in
    let data_start = i + 4 in
    let data = String.sub response data_start (String.length response - data_start) in
    let* vi = parse_version_info (header ^ "\n") in
    Ok (vi, data, wire)

let fetch_file ~obs root path =
  let* vi, data, _wire = fetch_file_sized ~obs root path in
  Ok (vi, data)

let fetch_dir_sized ~obs root path =
  let* response, wire = ctl_at_sized ~obs root path ~op:"getdir" ~extra:[] in
  match Fdir.decode response with None -> Error Errno.EIO | Some d -> Ok (d, wire)

let fetch_dir ~obs root path =
  let* d, _wire = fetch_dir_sized ~obs root path in
  Ok d

(* ---------------- delta negotiation (content-defined chunks) -------- *)

type chunk_map = {
  cm_vi : Physical.version_info;
  cm_digest : string option;
      (* whole-content digest from the header; absent from peers that
         predate it *)
  cm_chunks : Chunking.chunk list;
}

let fetch_chunk_map ~obs root path =
  let* response, wire = ctl_at_sized ~obs root path ~op:"getchunkmap" ~extra:[] in
  match find_sep response 0 with
  | None -> Error Errno.EIO
  | Some i ->
    let header = String.sub response 0 i ^ "\n" in
    let data_start = i + 4 in
    let body = String.sub response data_start (String.length response - data_start) in
    let* cm_vi = parse_version_info header in
    let cm_digest = List.assoc_opt "digest" (parse_fields header) in
    (match Chunking.decode_map body with
     | None -> Error Errno.EIO
     | Some cm_chunks -> Ok ({ cm_vi; cm_digest; cm_chunks }, wire))

(* How many digests ride in one "readchunks" request: the 255-byte
   ctl-name component budget, minus the op, "@hex" target, percent
   escapes and serial, leaves room for five 33-byte digest+comma runs. *)
let readchunks_batch = 5

(* Response framing: per requested chunk, a "chunk=<digest> <len>" line,
   then [len] raw bytes, then a newline separator. *)
let parse_chunk_bodies response table =
  let n = String.length response in
  let rec go i =
    if i >= n then Ok ()
    else
      match String.index_from_opt response i '\n' with
      | None -> Error Errno.EIO
      | Some j ->
        let line = String.sub response i (j - i) in
        if String.length line > 6 && String.sub line 0 6 = "chunk=" then (
          match String.index_opt line ' ' with
          | None -> Error Errno.EIO
          | Some sp ->
            let digest = String.sub line 6 (sp - 6) in
            (match
               int_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1))
             with
             | None -> Error Errno.EIO
             | Some len when len >= 0 && j + 1 + len <= n ->
               let body = String.sub response (j + 1) len in
               (* Verify before trusting: a corrupt or mismatched body
                  must not be assembled into the shadow file. *)
               if Chunking.digest_hex body <> digest then Error Errno.EIO
               else begin
                 Hashtbl.replace table digest body;
                 go (j + 1 + len + 1)
               end
             | Some _ -> Error Errno.EIO))
        else Error Errno.EIO
  in
  go 0

let fetch_chunks ~obs root path digests =
  let table = Hashtbl.create (List.length digests * 2) in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | d :: rest -> take (k - 1) (d :: acc) rest
  in
  let rec batches wire = function
    | [] -> Ok (table, wire)
    | ds ->
      let batch, rest = take readchunks_batch [] ds in
      let csv = String.concat "," batch in
      let* response, w = ctl_at_sized ~obs root path ~op:"readchunks" ~extra:[ csv ] in
      let* () = parse_chunk_bodies response table in
      batches (wire + w) rest
  in
  batches 0 digests

type dir_versions = {
  dv_summary : Version_vector.t option;
  dv_fdir : Fdir.t;
  dv_children : (Ids.file_id * Physical.version_info) list;
}

(* Response layout (see the "getdirvvs" ctl op in {!Physical}):
     summary=<vv>            (absent on pre-summary servers)
     fdir:
     <Fdir.encode body>
     endfdir:
     child=<hex-fid>         (one block per live child)
     <encode_version_info body>
     ... *)
let fetch_dir_versions ~obs root path =
  let* response = ctl_at ~obs root path ~op:"getdirvvs" in
  let lines = String.split_on_char '\n' response in
  let rec split_until marker acc = function
    | [] -> Error Errno.EIO
    | l :: rest when l = marker -> Ok (List.rev acc, rest)
    | l :: rest -> split_until marker (l :: acc) rest
  in
  let* header, rest = split_until "fdir:" [] lines in
  let* body, rest = split_until "endfdir:" [] rest in
  let* dv_fdir =
    match Fdir.decode (String.concat "\n" body ^ "\n") with
    | Some d -> Ok d
    | None -> Error Errno.EIO
  in
  let dv_summary =
    match List.assoc_opt "summary" (parse_fields (String.concat "\n" header)) with
    | None -> None
    | Some s -> Version_vector.decode s
  in
  let is_child l = String.length l > 6 && String.sub l 0 6 = "child=" in
  let finish acc = function
    | None, _ -> Ok acc
    | Some fid, block ->
      let* vi = parse_version_info (String.concat "\n" (List.rev block) ^ "\n") in
      Ok ((fid, vi) :: acc)
  in
  let rec children acc cur = function
    | [] ->
      let* acc = finish acc cur in
      Ok (List.rev acc)
    | l :: rest when is_child l ->
      let* acc = finish acc cur in
      (match Ids.fid_of_hex (String.sub l 6 (String.length l - 6)) with
       | Some fid -> children acc (Some fid, []) rest
       | None -> Error Errno.EIO)
    | l :: rest ->
      (match cur with
       | None, _ -> children acc cur rest (* stray blank line *)
       | Some fid, block -> children acc (Some fid, l :: block) rest)
  in
  let* dv_children = children [] (None, []) rest in
  Ok { dv_summary; dv_fdir; dv_children }

let resolve ~obs dir name =
  let* response = ctl ~obs dir ~op:"resolve" ~args:[ name ] in
  let fields = parse_fields response in
  match List.assoc_opt "fid" fields, List.assoc_opt "kind" fields with
  | Some fid, Some kind ->
    (match Ids.fid_of_hex fid, kind with
     | Some fid, "reg" -> Ok (fid, Aux_attrs.Freg)
     | Some fid, "dir" -> Ok (fid, Aux_attrs.Fdir)
     | Some fid, "graft" -> Ok (fid, Aux_attrs.Fgraft)
     | _, _ -> Error Errno.EIO)
  | _, _ -> Error Errno.EIO

let peers ~obs root =
  let* response = ctl ~obs root ~op:"peers" ~args:[] in
  match String.trim response with
  | "" -> Ok []
  | body ->
    let parse part =
      match String.index_opt part '@' with
      | None -> None
      | Some i ->
        (match int_of_string_opt (String.sub part 0 i) with
         | None -> None
         | Some r -> Some (r, String.sub part (i + 1) (String.length part - i - 1)))
    in
    let parts = String.split_on_char ',' body |> List.map parse in
    if List.exists Option.is_none parts then Error Errno.EIO
    else Ok (List.filter_map Fun.id parts)

let meta ~obs root =
  let* response = ctl ~obs root ~op:"meta" ~args:[] in
  let fields = parse_fields response in
  match List.assoc_opt "vref" fields, List.assoc_opt "rid" fields with
  | Some vref, Some rid ->
    (match String.split_on_char '.' vref, int_of_string_opt rid with
     | [ a; v ], Some rid ->
       (match int_of_string_opt a, int_of_string_opt v with
        | Some alloc, Some vol -> Ok ({ Ids.alloc; vol }, rid)
        | _, _ -> Error Errno.EIO)
     | _, _ -> Error Errno.EIO)
  | _, _ -> Error Errno.EIO

let stats ~obs root = ctl ~obs root ~op:"stats" ~args:[]

let flag_to_string = function
  | Vnode.Read_only -> "ro"
  | Vnode.Write_only -> "wo"
  | Vnode.Read_write -> "rw"

let send_open ~obs dir fid flag =
  let who = match fid with None -> "." | Some fid -> Ids.fid_to_at_name fid in
  let* _resp = ctl ~obs dir ~op:"open" ~args:[ who; flag_to_string flag ] in
  Ok ()

let send_close ~obs dir fid =
  let who = match fid with None -> "." | Some fid -> Ids.fid_to_at_name fid in
  let* _resp = ctl ~obs dir ~op:"close" ~args:[ who ] in
  Ok ()
