(* The line-splitting [getdirvvs] decoder that {!Ctl_wire}'s slicing one
   replaced, kept as the test oracle: the reply split into lines, the
   [fdir:] section joined back together and decoded. *)

let ( let* ) = Result.bind

let or_eio = function Some x -> Ok x | None -> Error Errno.EIO

let decode_dir_versions reply =
  let lines = String.split_on_char '\n' reply in
  let rec split_until marker acc = function
    | [] -> Error Errno.EIO
    | l :: rest when l = marker -> Ok (List.rev acc, rest)
    | l :: rest -> split_until marker (l :: acc) rest
  in
  let* header, rest = split_until "fdir:" [] lines in
  let* body, rest = split_until "endfdir:" [] rest in
  let* dv_fdir = or_eio (Fdir.decode (String.concat "\n" body ^ "\n")) in
  let header = Aux_attrs.fields (String.concat "\n" header) in
  let dv_summary = Option.bind (List.assoc_opt "summary" header) Version_vector.decode in
  let* dv_filtered =
    match List.assoc_opt "filtered" header with
    | None -> Ok None
    | Some "" -> Ok (Some [])
    | Some fids ->
      List.fold_right
        (fun hex acc ->
          let* acc = acc in
          let* fid = or_eio (Ids.fid_of_hex hex) in
          Ok (fid :: acc))
        (String.split_on_char ',' fids) (Ok [])
      |> Result.map Option.some
  in
  let is_child l = String.length l > 6 && String.sub l 0 6 = "child=" in
  let finish acc = function
    | None, _ -> Ok acc
    | Some fid, block ->
      let* vi = Ctl_wire.decode_version_info (String.concat "\n" (List.rev block)) in
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
  Ok { Ctl_wire.dv_summary; dv_filtered; dv_fdir; dv_children }
