(* Delta propagation: chunk negotiation on the pull path, the fallback
   when contents race ahead of the served map, dominated-notification skips,
   and chunk-map serving across a reboot. *)

open Util
module Vv = Version_vector

(* Deterministic full-entropy contents (an MD5 counter stream), large
   enough to span many chunks with distinct digests. *)
let synth ?(seed = "delta") n =
  let buf = Buffer.create (n + 16) in
  let i = ref 0 in
  while Buffer.length buf < n do
    Buffer.add_string buf (Digest.string (Printf.sprintf "%s-%d" seed !i));
    incr i
  done;
  Buffer.sub buf 0 n

(* A 2-host cluster with a multi-chunk file already propagated to both
   replicas.  4 KiB blocks: the UFS block map tops out at ~268 KiB on
   the default 1 KiB blocks. *)
let big_cluster ?(size = 256 * 1024) () =
  let cluster =
    Cluster.create ~selection:Logical.Prefer_local
      ~disk_blocks:2048 ~block_size:4096 ~cache_capacity:2048 ~nhosts:2 ()
  in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let fv = ok (root0.Vnode.create "big") in
  ok (Vnode.write_all fv (synth size));
  let (_ : int) = Cluster.run_propagation cluster in
  (cluster, vref, fv, size)

let counter cluster = Metrics.counter (Cluster.obs cluster).Obs.metrics

let content cluster i vref =
  let root = ok (Cluster.logical_root cluster i vref) in
  ok (Vnode.read_all (ok (root.Vnode.lookup "big")))

let big_fidpath phys =
  let fdir = ok (Physical.fetch_dir phys []) in
  [ (Option.get (Fdir.find_live fdir "big")).Fdir.fid ]

let test_delta_pull_ships_chunks () =
  let cluster, vref, fv, size = big_cluster () in
  let before = counter cluster "prop.bytes" in
  ok (fv.Vnode.write ~off:(size / 2) "one-block edit");
  let (_ : int) = Cluster.run_propagation cluster in
  let edit_bytes = counter cluster "prop.bytes" - before in
  Alcotest.(check bool) "a delta pull happened" true
    (counter cluster "prop.pull.delta" > 0);
  Alcotest.(check int) "no fallbacks" 0 (counter cluster "prop.delta_fallback");
  Alcotest.(check bool)
    (Printf.sprintf "edit shipped %d bytes for a %d-byte file" edit_bytes size)
    true
    (edit_bytes > 0 && edit_bytes * 4 < size);
  Alcotest.(check bool) "chunks mostly resolved locally" true
    (counter cluster "prop.chunks_hit" > counter cluster "prop.chunks_miss");
  Alcotest.(check bool) "savings accounted" true
    (counter cluster "prop.bytes_saved" > 0);
  Alcotest.(check string) "replicas converged"
    (Chunking.digest_hex (content cluster 0 vref))
    (Chunking.digest_hex (content cluster 1 vref))

let test_whole_copy_baseline_reships () =
  (* The whole-copy baseline DELTA measures against: the edit reships
     the file, and the pull is no delta. *)
  let cluster, vref, fv, size = big_cluster () in
  ok (fv.Vnode.write ~off:(size / 2) "one-block edit");
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let host0 = Cluster.host_name (Cluster.host cluster 0) in
  let connect () = Cluster.connect_from cluster 1 ~host:host0 ~vref ~rid:1 in
  (match
     ok
       (Delta.pull_file ~whole:true ~via:"prop" ~local:phys1 ~connect ~origin_rid:1
          (big_fidpath phys1))
   with
   | Delta.Fetched (stats, Ok (Some Physical.Installed)) ->
     Alcotest.(check bool) "whole file travelled" true (stats.Delta.wire_bytes >= size);
     Alcotest.(check bool) "no delta pull" true (stats.Delta.mode = Delta.Whole)
   | _ -> Alcotest.fail "expected a whole-file install");
  Alcotest.(check string) "replicas converged"
    (Chunking.digest_hex (content cluster 0 vref))
    (Chunking.digest_hex (content cluster 1 vref))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_raced_contents_fall_back () =
  let cluster, vref, fv, _size = big_cluster () in
  ok (fv.Vnode.write ~off:1000 "edit whose chunks race away");
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let host0 = Cluster.host_name (Cluster.host cluster 0) in
  let remote_root = ok ((Cluster.connect_from cluster 1) ~host:host0 ~vref ~rid:1) in
  (* The origin's contents change between serving the map and serving
     the bodies: a digest in the map is gone, and readchunks answers
     EAGAIN — exactly what its ctl_lookup does then. *)
  let raced_root =
    {
      remote_root with
      Vnode.lookup =
        (fun name ->
          if contains name "readchunks" then Error Errno.EAGAIN
          else remote_root.Vnode.lookup name);
    }
  in
  let path = big_fidpath phys1 in
  let outcome, stats = ok (Delta.fetch_file ~local:phys1 ~remote_root:raced_root path) in
  Alcotest.(check bool) "degraded to a whole-file fetch" true
    (stats.Delta.mode = Delta.Fallback);
  (match outcome with
   | Delta.Data (_, data) ->
     Alcotest.(check string) "fallback data is the origin's" (content cluster 0 vref)
       (Chunking.Content.bytes data)
   | Delta.Up_to_date _ -> Alcotest.fail "expected data from the fallback fetch");
  let _, plain = ok (Delta.fetch_whole ~obs:(Physical.obs phys1) remote_root path) in
  Alcotest.(check bool) "the chunk map stays on the bill" true
    (stats.Delta.wire_bytes > plain.Delta.wire_bytes)

let test_dominated_notification_skipped () =
  (* A notification whose version vector the local copy already
     dominates must be dropped without an RPC — even when the origin is
     unreachable. *)
  let cluster, vref, _fv, _size = big_cluster () in
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let path = big_fidpath phys1 in
  let lvi = ok (Physical.get_version phys1 path) in
  Alcotest.(check bool) "replica stores the file" true lvi.Physical.vi_stored;
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let prop1 = Cluster.propagation (Cluster.host cluster 1) in
  Propagation.on_notify prop1
    {
      Notify.vref;
      fidpath = path;
      fid = List.hd (List.rev path);
      kind = Aux_attrs.Freg;
      origin_rid = 1;
      origin_host = Cluster.host_name (Cluster.host cluster 0);
      span = 0;
      vv = lvi.Physical.vi_vv;
    };
  let (_ : int) = Propagation.run_once prop1 in
  Alcotest.(check int) "skipped without an RPC" 1
    (Counters.get (Propagation.counters prop1) "prop.skipped_dominated");
  Alcotest.(check int) "no retries burned" 0
    (Counters.get (Propagation.counters prop1) "prop.retries");
  Alcotest.(check int) "queue drained" 0 (Propagation.pending prop1)

let test_chunk_serving_survives_reboot () =
  let cluster, vref, fv, size = big_cluster () in
  (* Reboot the puller: its content-keyed chunk cache is volatile and
     gone; maps are recomputed from stored contents and the next pull
     still negotiates (the cache is an optimization, never coherence). *)
  ok ~msg:"reboot host1" (Cluster.reboot cluster 1);
  ok (fv.Vnode.write ~off:(size / 3) "edit after puller reboot");
  let (_ : int) = Cluster.run_propagation cluster in
  Alcotest.(check int) "no fallbacks after puller reboot" 0
    (counter cluster "prop.delta_fallback");
  Alcotest.(check string) "converged after puller reboot"
    (Chunking.digest_hex (content cluster 0 vref))
    (Chunking.digest_hex (content cluster 1 vref));
  let delta_pulls = counter cluster "prop.pull.delta" in
  Alcotest.(check bool) "pull travelled as a delta" true (delta_pulls > 0);
  (* Reboot the origin: served maps come from the re-attached replica
     (vnode handles from before the reboot are stale, so re-resolve). *)
  ok ~msg:"reboot host0" (Cluster.reboot cluster 0);
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let fv = ok (root0.Vnode.lookup "big") in
  ok (fv.Vnode.write ~off:(2 * size / 3) "edit after origin reboot");
  let (_ : int) = Cluster.run_propagation cluster in
  Alcotest.(check int) "no fallbacks after origin reboot" 0
    (counter cluster "prop.delta_fallback");
  Alcotest.(check bool) "still negotiating deltas" true
    (counter cluster "prop.pull.delta" > delta_pulls);
  Alcotest.(check string) "converged after origin reboot"
    (Chunking.digest_hex (content cluster 0 vref))
    (Chunking.digest_hex (content cluster 1 vref))

let test_small_files_skip_negotiation () =
  (* Below min_delta_size the negotiation cannot win; the pull must be a
     plain whole-file fetch with no chunk counters moving. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "small" "tiny contents";
  let (_ : int) = Cluster.run_propagation cluster in
  write_file root0 "small" "tiny contents v2";
  let (_ : int) = Cluster.run_propagation cluster in
  Alcotest.(check int) "no delta pulls for small files" 0
    (counter cluster "prop.pull.delta");
  Alcotest.(check int) "no chunk fetches" 0 (counter cluster "prop.chunks_miss");
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let fdir = ok (Physical.fetch_dir phys1 []) in
  let e = Option.get (Fdir.find_live fdir "small") in
  let _, data = ok (Physical.fetch_file phys1 [ e.Fdir.fid ]) in
  Alcotest.(check string) "propagated" "tiny contents v2" data


(* ---------------- hash-once: adopted maps and digests ---------------- *)

(* The raw ["getchunkmap"] reply a replica serves for [path] (a child
   of its root), as a puller receives it. *)
let raw_chunk_map phys path =
  let fid = List.hd (List.rev path) in
  let name = ok (Ctl_name.encode ~op:"getchunkmap" ~args:[ Ids.fid_to_at_name fid; "n0" ]) in
  ok (Vnode.read_all (ok ((Physical.root phys).Vnode.lookup name)))

let served_digest reply =
  let _, digest, _ = ok (Ctl_wire.decode_chunk_map reply) in
  digest

let edit_128 = String.make 128 'e'

let test_delta_install_adopts_verified_map () =
  let cluster, vref, fv, size = big_cluster () in
  let delta_pulls = counter cluster "prop.pull.delta" in
  ok (fv.Vnode.write ~off:(size / 2) edit_128);
  let (_ : int) = Cluster.run_propagation cluster in
  Alcotest.(check bool) "the edit travelled as a delta" true
    (counter cluster "prop.pull.delta" > delta_pulls);
  Alcotest.(check int) "no fallbacks" 0 (counter cluster "prop.delta_fallback");
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let path = big_fidpath phys1 in
  let _, data = ok (Physical.fetch_file phys1 path) in
  Alcotest.(check string) "installed the origin's bytes" (content cluster 0 vref) data;
  let hits = Counters.get (Physical.counters phys1) "phys.chunkmap.hit" in
  let map = Physical.chunks_of_content phys1 data in
  Alcotest.(check int) "the installed bytes' map is cached" (hits + 1)
    (Counters.get (Physical.counters phys1) "phys.chunkmap.hit");
  Alcotest.(check bool) "the adopted map is the split of the bytes" true
    (map = Chunking.split data);
  (* An installed version's reply carries the aux record's digest. *)
  let warm = raw_chunk_map phys1 path in
  Alcotest.(check string) "the stored digest is the bytes'" (Chunking.digest_hex data)
    (served_digest warm);
  ok ~msg:"reboot host1" (Cluster.reboot cluster 1);
  let cold = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  Alcotest.(check string) "a cold replica serves the same reply" warm (raw_chunk_map cold path)

let test_origin_serves_current_digest () =
  (* A local write clears the aux digest; the origin then serves the
     digest of its cached content, which must be the new bytes', never
     an earlier version's. *)
  let cluster, vref, fv, size = big_cluster () in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let path = big_fidpath phys0 in
  let served () =
    let reply = raw_chunk_map phys0 path in
    let _, digest, map = ok (Ctl_wire.decode_chunk_map reply) in
    let bytes = content cluster 0 vref in
    Alcotest.(check string) "digest of the stored bytes" (Chunking.digest_hex bytes) digest;
    Alcotest.(check bool) "map of the stored bytes" true (map = Chunking.split bytes);
    digest
  in
  ok (fv.Vnode.write ~off:(size / 2) edit_128);
  let first = served () in
  Alcotest.(check string) "asking twice" first (served ());
  ok (fv.Vnode.write ~off:(size / 2) (String.make 128 'f'));
  Alcotest.(check bool) "a second write serves a new digest" true (served () <> first)

let test_equal_length_contents_keep_own_maps () =
  (* The cache hashes a few sampled windows of each key; two contents of
     one length that differ only between them share a bucket, and must
     still keep their own entries. *)
  let cluster, vref, _fv, _size = big_cluster () in
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let a = synth ~seed:"windows" (64 * 1024) in
  let b = Bytes.of_string a in
  List.iter (fun i -> Bytes.set b i '!') [ 100; 20_000; 40_000; 60_000 ];
  let b = Bytes.to_string b in
  let misses () = Counters.get (Physical.counters phys1) "phys.chunkmap.miss" in
  let m0 = misses () in
  Alcotest.(check bool) "a's map" true (Physical.chunks_of_content phys1 a = Chunking.split a);
  Alcotest.(check bool) "b's map" true (Physical.chunks_of_content phys1 b = Chunking.split b);
  Alcotest.(check int) "both missed" (m0 + 2) (misses ());
  Alcotest.(check bool) "a's map again" true
    (Physical.chunks_of_content phys1 a = Chunking.split a);
  Alcotest.(check int) "then a hit" (m0 + 2) (misses ())

let replace_once hay ~sub ~by =
  let n = String.length sub in
  let rec find i = if String.sub hay i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub hay 0 i ^ by ^ String.sub hay (i + n) (String.length hay - i - n)

let test_unverified_map_never_adopted () =
  (* An origin whose map header names the wrong whole digest: every
     chunk body checks out, the reassembly does not.  The pull falls
     back to the whole file, and the install stores the digest and map
     of the bytes it installed, never the header's. *)
  let cluster, vref, fv, size = big_cluster () in
  ok (fv.Vnode.write ~off:(size / 2) edit_128);
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let host0 = Cluster.host_name (Cluster.host cluster 0) in
  let remote_root = ok ((Cluster.connect_from cluster 1) ~host:host0 ~vref ~rid:1) in
  let bogus = Chunking.digest_hex "not these bytes" in
  let tampered_root =
    {
      remote_root with
      Vnode.lookup =
        (fun name ->
          let r = remote_root.Vnode.lookup name in
          if not (contains name "getchunkmap") then r
          else
            Result.map
              (fun v ->
                let reply = ok (Vnode.read_all v) in
                let reply =
                  replace_once reply ~sub:("digest=" ^ served_digest reply)
                    ~by:("digest=" ^ bogus)
                in
                {
                  v with
                  Vnode.read =
                    (fun ~off ~len ->
                      let off = min off (String.length reply) in
                      Ok (String.sub reply off (min len (String.length reply - off))));
                })
              r);
    }
  in
  let path = big_fidpath phys1 in
  (match
     ok
       (Delta.pull_file ~via:"prop" ~local:phys1
          ~connect:(fun () -> Ok tampered_root)
          ~origin_rid:1 path)
   with
   | Delta.Fetched (stats, Ok (Some Physical.Installed)) ->
     Alcotest.(check bool) "fell back to the whole file" true
       (stats.Delta.mode = Delta.Fallback)
   | _ -> Alcotest.fail "expected a fallback install");
  let _, data = ok (Physical.fetch_file phys1 path) in
  Alcotest.(check string) "installed the origin's bytes" (content cluster 0 vref) data;
  let _, digest, map = ok (Ctl_wire.decode_chunk_map (raw_chunk_map phys1 path)) in
  Alcotest.(check string) "stored digest is the bytes'" (Chunking.digest_hex data) digest;
  Alcotest.(check bool) "cached map is the bytes'" true (map = Chunking.split data)

let suite =
  [
    case "delta pull ships chunks, not the file" test_delta_pull_ships_chunks;
    case "whole-copy baseline reships the file" test_whole_copy_baseline_reships;
    case "raced contents fall back to whole-file" test_raced_contents_fall_back;
    case "dominated notification skipped without RPC" test_dominated_notification_skipped;
    case "chunk serving survives reboot" test_chunk_serving_survives_reboot;
    case "small files skip negotiation" test_small_files_skip_negotiation;
    case "delta install adopts the verified map and digest"
      test_delta_install_adopts_verified_map;
    case "origin serves the current version's digest" test_origin_serves_current_digest;
    case "equal-length contents keep their own maps" test_equal_length_contents_keep_own_maps;
    case "an unverified map is never adopted" test_unverified_map_never_adopted;
  ]
