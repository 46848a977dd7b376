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
let big_cluster ?(delta = true) ?(size = 256 * 1024) () =
  let cluster =
    Cluster.create ~prop_delta:delta ~selection:Logical.Prefer_local
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
  (* The ~prop_delta:false arm must keep the seed behavior: the edit
     reships the file, and no delta counters move. *)
  let cluster, vref, fv, size = big_cluster ~delta:false () in
  let before = counter cluster "prop.bytes" in
  ok (fv.Vnode.write ~off:(size / 2) "one-block edit");
  let (_ : int) = Cluster.run_propagation cluster in
  let edit_bytes = counter cluster "prop.bytes" - before in
  Alcotest.(check bool) "whole file travelled" true (edit_bytes >= size);
  Alcotest.(check int) "no delta pulls" 0 (counter cluster "prop.pull.delta");
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
     Alcotest.(check string) "fallback data is the origin's" (content cluster 0 vref) data
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

let suite =
  [
    case "delta pull ships chunks, not the file" test_delta_pull_ships_chunks;
    case "whole-copy baseline reships the file" test_whole_copy_baseline_reships;
    case "raced contents fall back to whole-file" test_raced_contents_fall_back;
    case "dominated notification skipped without RPC" test_dominated_notification_skipped;
    case "chunk serving survives reboot" test_chunk_serving_survives_reboot;
    case "small files skip negotiation" test_small_files_skip_negotiation;
  ]
