(* The Remote control protocol (ctl-over-lookup) in adversarial
   conditions: NFS caches, embedded separators, and the paper's claim
   that graft points reconcile via the ordinary directory machinery. *)

open Util

let two_hosts () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  (cluster, vref)

let test_fetch_file_with_embedded_separator () =
  (* File contents containing the protocol's header separator must
     survive the encode/decode roundtrip. *)
  let cluster, vref = two_hosts () in
  let obs = Cluster.obs cluster in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let tricky = "header-looking\n--\npayload with separator\n--\nmore" in
  create_file root0 "tricky" tricky;
  let connect = Cluster.connect_from cluster 1 in
  let remote_root = ok (connect ~host:"host0" ~vref ~rid:1) in
  let fdir = ok (Remote.fetch_dir ~obs remote_root []) in
  let e = Option.get (Fdir.find_live fdir "tricky") in
  let _, data = ok (Remote.fetch_file ~obs remote_root [ e.Fdir.fid ]) in
  Alcotest.(check string) "contents intact" tricky data

let test_ctl_defeats_nfs_name_cache () =
  (* Repeated control fetches through a caching NFS mount must see fresh
     state every time (the per-call serial defeats the name cache). *)
  let cluster, vref = two_hosts () in
  let obs = Cluster.obs cluster in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let connect = Cluster.connect_from cluster 1 in
  let remote_root = ok (connect ~host:"host0" ~vref ~rid:1) in
  let live_count () =
    List.length (Fdir.live (ok (Remote.fetch_dir ~obs remote_root [])))
  in
  Alcotest.(check int) "initially empty" 0 (live_count ());
  create_file root0 "new-file" "x";
  (* Same mount, same clock instant: a cached response would still say
     empty. *)
  Alcotest.(check int) "fresh state visible" 1 (live_count ())

let test_remote_walk_and_errors () =
  let cluster, vref = two_hosts () in
  let obs = Cluster.obs cluster in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (Namei.mkdir_p ~root:root0 "a/b") in
  create_file root0 "a/b/leaf" "deep";
  let connect = Cluster.connect_from cluster 1 in
  let remote_root = ok (connect ~host:"host0" ~vref ~rid:1) in
  let fdir = ok (Remote.fetch_dir ~obs remote_root []) in
  let a = Option.get (Fdir.find_live fdir "a") in
  let sub = ok (Remote.fetch_dir ~obs remote_root [ a.Fdir.fid ]) in
  let b = Option.get (Fdir.find_live sub "b") in
  let leaf_fid, kind =
    let subsub = ok (Remote.fetch_dir ~obs remote_root [ a.Fdir.fid; b.Fdir.fid ]) in
    let leaf = Option.get (Fdir.find_live subsub "leaf") in
    (leaf.Fdir.fid, leaf.Fdir.kind)
  in
  Alcotest.(check bool) "leaf is a file" true (kind = Aux_attrs.Freg);
  let vi =
    ok (Remote.get_version ~obs remote_root [ a.Fdir.fid; b.Fdir.fid; leaf_fid ])
  in
  Alcotest.(check int) "size over the wire" 4 vi.Physical.vi_size;
  (* Unknown fids error cleanly. *)
  expect_err Errno.ENOENT
    (Result.map (fun _ -> ())
       (Remote.get_version ~obs remote_root [ { Ids.issuer = 9; uniq = 999 } ]));
  (* readfile of a directory is rejected. *)
  expect_err Errno.EISDIR
    (Result.map (fun _ -> ()) (Remote.fetch_file ~obs remote_root [ a.Fdir.fid ]))

let test_resolve_remote () =
  let cluster, vref = two_hosts () in
  let obs = Cluster.obs cluster in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "target" "x";
  let connect = Cluster.connect_from cluster 1 in
  let remote_root = ok (connect ~host:"host0" ~vref ~rid:1) in
  let fid, kind = ok (Remote.resolve ~obs remote_root "target") in
  Alcotest.(check bool) "kind" true (kind = Aux_attrs.Freg);
  Alcotest.(check bool) "issuer is replica 1" true (fid.Ids.issuer = 1);
  expect_err Errno.ENOENT
    (Result.map (fun _ -> ()) (Remote.resolve ~obs remote_root "missing"))

let test_fetch_dir_versions () =
  (* The batched getdirvvs op: one RPC returns the directory's subtree
     summary, its fdir, and version info for every live child — with
     contents that embed protocol markers surviving the roundtrip. *)
  let cluster, vref = two_hosts () in
  let obs = Cluster.obs cluster in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "plain" "pay\nchild=42\nload";
  create_file root0 "tricky" "body with\nfdir:\nand\nendfdir:\nmarkers";
  let _ = ok (root0.Vnode.mkdir "sub") in
  let connect = Cluster.connect_from cluster 1 in
  let remote_root = ok (connect ~host:"host0" ~vref ~rid:1) in
  let dv = ok (Remote.fetch_dir_versions ~obs remote_root []) in
  Alcotest.(check bool) "summary present" true (dv.Remote.dv_summary <> None);
  let live = Fdir.live dv.Remote.dv_fdir in
  Alcotest.(check int) "three live entries" 3 (List.length live);
  Alcotest.(check int) "three child infos" 3 (List.length dv.Remote.dv_children);
  let vi_of name =
    let e = Option.get (Fdir.find_live dv.Remote.dv_fdir name) in
    List.assoc e.Fdir.fid dv.Remote.dv_children
  in
  let plain = vi_of "plain" in
  Alcotest.(check int) "file size over the wire" 17 plain.Physical.vi_size;
  Alcotest.(check bool) "files carry no summary" true (plain.Physical.vi_summary = None);
  let sub = vi_of "sub" in
  Alcotest.(check bool) "dirs carry a summary" true (sub.Physical.vi_summary <> None);
  Alcotest.(check bool) "dir kind" true (sub.Physical.vi_kind = Aux_attrs.Fdir)

let test_graft_points_reconcile_as_directories () =
  (* Paper §4.3: "Overloading the directory concept in this way allows
     implicit use of the Ficus directory reconciliation mechanism to
     manage a replicated object (a graft point)".  Add a volume replica
     to one graft-point replica during a partition; after reconciliation
     the other replica knows it too — with zero graft-specific code. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let target = { Ids.alloc = 0; vol = 77 } in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  ok
    (Physical.make_graft_point phys0 ~parent:[] ~name:"vol" ~target
       ~replicas:[ (1, "hostX") ]);
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  (* Both replicas hold the graft point. *)
  let gp_path phys =
    let fdir = ok (Physical.fetch_dir phys []) in
    let e = Option.get (Fdir.find_live fdir "vol") in
    [ e.Fdir.fid ]
  in
  let _, reps1 = ok (Physical.graft_point_info phys1 (gp_path phys1)) in
  Alcotest.(check int) "replicated graft point" 1 (List.length reps1);
  (* Partition; extend the graft point on host0 only. *)
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  ok (Physical.add_graft_replica phys0 (gp_path phys0) 2 "hostY");
  let _, reps1 = ok (Physical.graft_point_info phys1 (gp_path phys1)) in
  Alcotest.(check int) "host1 not yet aware" 1 (List.length reps1);
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:10 ()) in
  let t1, reps1 = ok (Physical.graft_point_info phys1 (gp_path phys1)) in
  Alcotest.(check int) "graft point reconciled" 2 (List.length reps1);
  Alcotest.(check bool) "target preserved" true (Ids.vref_equal t1 target);
  Alcotest.(check bool) "new site listed" true (List.mem_assoc 2 reps1)

let test_send_open_close_remote () =
  let cluster, vref = two_hosts () in
  let obs = Cluster.obs cluster in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let connect = Cluster.connect_from cluster 1 in
  let remote_root = ok (connect ~host:"host0" ~vref ~rid:1) in
  ok (Remote.send_open ~obs remote_root None Vnode.Read_write);
  Alcotest.(check int) "open registered across NFS" 1 (Physical.open_files phys0);
  ok (Remote.send_close ~obs remote_root None);
  Alcotest.(check int) "closed" 0 (Physical.open_files phys0)

let suite =
  [
    case "fetch_file with embedded separator" test_fetch_file_with_embedded_separator;
    case "ctl serial defeats NFS name cache" test_ctl_defeats_nfs_name_cache;
    case "remote walk and errors" test_remote_walk_and_errors;
    case "remote resolve" test_resolve_remote;
    case "fetch_dir_versions batched op" test_fetch_dir_versions;
    case "graft points reconcile as directories" test_graft_points_reconcile_as_directories;
    case "send open/close across NFS" test_send_open_close_remote;
  ]
