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
  | Data of Physical.version_info * string
  | Up_to_date of Physical.version_info

let ( let* ) = Result.bind

(* Below this size the chunk map plus negotiation round trips cannot
   beat just shipping the file. *)
let min_delta_size = 2 * Chunking.min_size

let stats_of ~mode ~wire ~size ~hit ~miss =
  { mode; wire_bytes = wire; saved_bytes = max 0 (size - wire); chunks_hit = hit;
    chunks_miss = miss }

let whole ~obs ~mode ~extra_wire remote_root path =
  let* vi, data, wire = Remote.fetch_file ~obs remote_root path in
  Ok
    ( Data (vi, data),
      {
        mode;
        wire_bytes = wire + extra_wire;
        saved_bytes = 0;
        chunks_hit = 0;
        chunks_miss = 0;
      } )

let fetch_whole ~obs remote_root path = whole ~obs ~mode:Whole ~extra_wire:0 remote_root path

(* Delta-or-whole fetch of a regular file from [remote_root].

   The delta path only pays when this replica already stores a
   reasonably sized copy to diff against; otherwise every chunk would
   miss and the negotiation is strictly worse than one readfile.  Any
   delta-path surprise — a pre-chunking peer (EINVAL), contents racing
   ahead of the served map (EAGAIN), a reassembly or digest mismatch —
   degrades to the whole-file fetch, with the bytes already spent kept
   on the bill. *)
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
    (match Remote.fetch_chunk_map ~obs remote_root path with
     | Error Errno.EINVAL ->
       (* Pre-chunking peer: the getdirvvs precedent — degrade, never
          fail. *)
       whole ~mode:Fallback ~extra_wire:0 remote_root path
     | Error _ as e -> e
     | Ok (rvi, digest, remote_chunks, map_wire) ->
       if Vv.dominates lvi.Physical.vi_vv rvi.Physical.vi_vv then
         (* The map header already proves we're current: a duplicate or
            raced notification is answered without the contents. *)
         Ok
           ( Up_to_date rvi,
             stats_of ~mode:Delta ~wire:map_wire ~size:rvi.Physical.vi_size ~hit:0
               ~miss:0 )
       else begin
         let local_chunks = Physical.chunks_of_content local ldata in
         let have_tbl = Hashtbl.create 64 in
         List.iter
           (fun c ->
             if not (Hashtbl.mem have_tbl c.Chunking.digest) then
               Hashtbl.add have_tbl c.Chunking.digest c)
           local_chunks;
         let hit = ref 0 and miss = ref 0 in
         let missing =
           List.filter_map
             (fun c ->
               if Hashtbl.mem have_tbl c.Chunking.digest then begin
                 incr hit;
                 None
               end
               else begin
                 incr miss;
                 Some c.Chunking.digest
               end)
             remote_chunks
         in
         (* A digest missing twice in the map still travels once. *)
         let missing = List.sort_uniq String.compare missing in
         match Remote.fetch_chunks ~obs remote_root path missing with
         | Error (Errno.EAGAIN | Errno.EINVAL) ->
           whole ~mode:Fallback ~extra_wire:map_wire remote_root path
         | Error _ as e -> e
         | Ok (bodies, chunk_wire) ->
           let have d =
             Option.map (Chunking.slice ldata) (Hashtbl.find_opt have_tbl d)
           in
           let reassembled =
             Chunking.reassemble remote_chunks ~have
               ~fetched:(Hashtbl.find_opt bodies)
           in
           let verified =
             match reassembled with
             | Some data when Chunking.digest_hex data <> digest -> None
             | r -> r
           in
           (match verified with
            | None ->
              (* Never install bytes that failed the end-to-end check. *)
              whole ~mode:Fallback ~extra_wire:(map_wire + chunk_wire) remote_root
                path
            | Some data ->
              Ok
                ( Data (rvi, data),
                  stats_of ~mode:Delta ~wire:(map_wire + chunk_wire)
                    ~size:rvi.Physical.vi_size ~hit:!hit ~miss:!miss ))
       end)
