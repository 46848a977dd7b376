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
   (one per cluster), makes every request name unique.  Every call also
   reports the bytes the exchange put on the wire (request name +
   response body — the walk to the parent directory is not charged), so
   callers can account transfer costs honestly. *)
let ctl ~obs dir ~op ~args =
  obs.Obs.ctl_serial <- obs.Obs.ctl_serial + 1;
  let args = args @ [ Printf.sprintf "n%d" obs.Obs.ctl_serial ] in
  let* name = Ctl_name.encode ~op ~args in
  let* response_vnode = dir.Vnode.lookup name in
  let* body = Vnode.read_all response_vnode in
  Ok (body, String.length name + String.length body)

(* A control op addressed to [path]: issued on the parent directory with
   the final component as "@hex" argument, or on the root with ".";
   [extra] args follow the target. *)
let ctl_at ?(extra = []) ~obs root path ~op =
  match List.rev path with
  | [] -> ctl ~obs root ~op ~args:("." :: extra)
  | fid :: rev_parent ->
    let* parent = walk root (List.rev rev_parent) in
    ctl ~obs parent ~op ~args:(Ids.fid_to_at_name fid :: extra)

(* A call whose reply is decoded by [decode]; the wire bytes are
   dropped. *)
let query decode call =
  let* body, _wire = call in
  decode body

let get_version ~obs root path =
  query Ctl_wire.decode_version_info (ctl_at ~obs root path ~op:"getvv")

let fetch_file ~obs root path =
  let* body, wire = ctl_at ~obs root path ~op:"readfile" in
  let* vi, data = Ctl_wire.decode_file body in
  Ok (vi, data, wire)

let fetch_dir ~obs root path =
  let* body, wire = ctl_at ~obs root path ~op:"getdir" in
  match Fdir.decode body with None -> Error Errno.EIO | Some d -> Ok (d, wire)

let fetch_chunk_map ~obs root path =
  let* body, wire = ctl_at ~obs root path ~op:"getchunkmap" in
  let* vi, digest, chunks = Ctl_wire.decode_chunk_map body in
  Ok (vi, digest, chunks, wire)

(* How many digests ride in one "readchunks" request: the 255-byte
   ctl-name component budget, minus the op, "@hex" target, percent
   escapes and serial, leaves room for five 33-byte digest+comma runs. *)
let readchunks_batch = 5

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
      let* body, w = ctl_at ~obs root path ~op:"readchunks" ~extra:[ String.concat "," batch ] in
      let* bodies = Ctl_wire.decode_chunks body in
      List.iter (fun (d, b) -> Hashtbl.replace table d b) bodies;
      batches (wire + w) rest
  in
  batches 0 digests

let fetch_dir_versions ~obs root path ~floor =
  let extra = match floor with Some f -> [ string_of_int f ] | None -> [] in
  let* body, wire = ctl_at ~extra ~obs root path ~op:"getdirvvs" in
  let* dv = Ctl_wire.decode_dir_versions body in
  Ok (dv, wire)

let resolve ~obs dir name = query Ctl_wire.decode_resolve (ctl ~obs dir ~op:"resolve" ~args:[ name ])
let peers ~obs root = query Ctl_wire.decode_peers (ctl ~obs root ~op:"peers" ~args:[])
let meta ~obs root = query Ctl_wire.decode_meta (ctl ~obs root ~op:"meta" ~args:[])
let stats ~obs root = query Result.ok (ctl ~obs root ~op:"stats" ~args:[])

let flag_to_string = function
  | Vnode.Read_only -> "ro"
  | Vnode.Write_only -> "wo"
  | Vnode.Read_write -> "rw"

let who = function None -> "." | Some fid -> Ids.fid_to_at_name fid

let send_open ~obs dir fid flag =
  query (fun _ -> Ok ()) (ctl ~obs dir ~op:"open" ~args:[ who fid; flag_to_string flag ])

let send_close ~obs dir fid = query (fun _ -> Ok ()) (ctl ~obs dir ~op:"close" ~args:[ who fid ])
