module Vv = Version_vector

type mode = Delta | Whole | Fallback

type stats = {
  mode : mode;
  wire_bytes : int;
  saved_bytes : int;
  chunks_hit : int;
  chunks_miss : int;
}

type outcome =
  | Data of Physical.version_info * Chunking.Content.t
  | Up_to_date of Physical.version_info

let ( let* ) = Result.bind

(* The one dominance rule: this replica stores the file and its history
   already includes [remote_vv], so there is nothing to pull — decided
   from a notification's vector before any RPC, or from the chunk-map
   header. *)
let current (local : Physical.version_info) remote_vv =
  local.Physical.vi_stored && Vv.dominates local.Physical.vi_vv remote_vv

(* Below this size the chunk map plus negotiation round trips cannot
   beat just shipping the file. *)
let min_delta_size = 2 * Chunking.min_size

let stats_of ~mode ~wire ~size ~hit ~miss =
  { mode; wire_bytes = wire; saved_bytes = max 0 (size - wire); chunks_hit = hit;
    chunks_miss = miss }

let whole ~obs ~mode ~extra_wire remote_root path =
  let* vi, data, wire = Remote.fetch_file ~obs remote_root path in
  Ok
    ( Data (vi, Chunking.Content.make data),
      stats_of ~mode ~wire:(wire + extra_wire) ~size:0 ~hit:0 ~miss:0 )

let fetch_whole ~obs remote_root path = whole ~obs ~mode:Whole ~extra_wire:0 remote_root path

(* Delta-or-whole fetch of a regular file from [remote_root].

   The delta path only pays when this replica already stores a
   reasonably sized copy to diff against; otherwise every chunk would
   miss and the negotiation is strictly worse than one readfile.  A
   delta-path surprise — contents racing ahead of the served map
   (EAGAIN), a reassembly or digest mismatch — degrades to the
   whole-file fetch, with the bytes already spent kept on the bill. *)
let fetch_file ~local ~remote_root path =
  let obs = Physical.obs local in
  let whole = whole ~obs in
  let local_copy =
    match Physical.fetch_file local path with
    | Ok (lvi, ldata)
      when lvi.Physical.vi_stored && String.length ldata >= min_delta_size ->
      Some (lvi, ldata)
    | Ok _ | Error _ -> None
  in
  match local_copy with
  | None -> fetch_whole ~obs remote_root path
  | Some (lvi, ldata) ->
    let* rvi, digest, remote_chunks, map_wire =
      Remote.fetch_chunk_map ~obs remote_root path
    in
    if current lvi rvi.Physical.vi_vv then
      (* The map header already proves we're current: a duplicate or
         raced notification is answered without the contents. *)
      Ok
        ( Up_to_date rvi,
          stats_of ~mode:Delta ~wire:map_wire ~size:rvi.Physical.vi_size ~hit:0 ~miss:0 )
    else begin
      (* Equal digests slice equal bytes, so any local chunk will do. *)
      let have_tbl = Hashtbl.create 64 in
      List.iter
        (fun c -> Hashtbl.replace have_tbl c.Chunking.digest c)
        (Physical.chunks_of_content local ~fid:(Physical.path_fid path) ldata);
      let missing =
        List.filter (fun c -> not (Hashtbl.mem have_tbl c.Chunking.digest)) remote_chunks
      in
      let miss = List.length missing in
      let hit = List.length remote_chunks - miss in
      (* A digest missing twice in the map still travels once. *)
      let missing =
        List.sort_uniq String.compare (List.map (fun c -> c.Chunking.digest) missing)
      in
      match Remote.fetch_chunks ~obs remote_root path missing with
      | Error Errno.EAGAIN -> whole ~mode:Fallback ~extra_wire:map_wire remote_root path
      | Error _ as e -> e
      | Ok (bodies, chunk_wire) ->
        let have d = Option.map (Chunking.slice ldata) (Hashtbl.find_opt have_tbl d) in
        let reassembled =
          Chunking.reassemble remote_chunks ~have ~fetched:(Hashtbl.find_opt bodies)
        in
        (* Every fetched body matched its digest on decode; with the
           whole digest matching too, the reassembled bytes are the
           origin's, the map is theirs, and the install adopts both. *)
        let verified =
          match reassembled with
          | Some data when Chunking.digest_hex data = digest ->
            Some (Chunking.Content.verified data ~digest remote_chunks)
          | Some _ | None -> None
        in
        (match verified with
         | None ->
           (* Never install bytes that failed the end-to-end check. *)
           whole ~mode:Fallback ~extra_wire:(map_wire + chunk_wire) remote_root path
         | Some data ->
           Ok
             ( Data (rvi, data),
               stats_of ~mode:Delta ~wire:(map_wire + chunk_wire) ~size:rvi.Physical.vi_size
                 ~hit ~miss ))
    end

type pull =
  | Current
  | Fetched of stats * (Physical.install_outcome option, Errno.t) result

let pull_file ?(whole = false) ?(span = 0) ?(detail = false) ~via ~local ~connect
    ~origin_rid ?remote_vv path =
  let decided_current =
    match remote_vv with
    | None -> false
    | Some vv ->
      (match Physical.get_version local path with
       | Ok lvi -> current lvi vv
       | Error _ -> false)
  in
  if decided_current then Ok Current
  else
    let* remote_root = connect () in
    let obs = Physical.obs local in
    let* fetched, stats =
      if whole then fetch_whole ~obs remote_root path
      else fetch_file ~local ~remote_root path
    in
    let installed =
      match fetched with
      | Up_to_date _ -> Ok None
      | Data (vi, data) ->
        (* The caller's span (a notification's) wins over the one the
           origin stored with the version (a reconciled hint). *)
        let span = if span <> 0 then span else vi.Physical.vi_span in
        let now () = Clock.now (Physical.clock local) in
        let host = Physical.host local in
        Span.event obs.Obs.spans span ~host ~tick:(now ())
          (if detail && stats.mode = Delta then via ^ ":pull-delta" else via ^ ":pull");
        let install () =
          Physical.install_file ~span ~via local path ~vv:vi.Physical.vi_vv
            ~uid:vi.Physical.vi_uid ~data ~origin_rid
        in
        let installed =
          if detail then
            Span.with_ctx (Span.make_ctx ~spans:obs.Obs.spans ~id:span ~host ~now) install
          else install ()
        in
        Result.map Option.some installed
    in
    Ok (Fetched (stats, installed))

let pull_dir ~local ~remote_root ~remote_rid path =
  let* remote_fdir, wire = Remote.fetch_dir ~obs:(Physical.obs local) remote_root path in
  let* result = Physical.merge_dir local path ~remote_rid remote_fdir in
  Ok (result, wire)
