(* Cluster-level machinery: dynamic replica placement, reboot under
   load, reconciliation scheduling, host crash during propagation. *)

open Util

let test_add_replica_populates () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (Namei.mkdir_p ~root:root0 "a/b") in
  create_file root0 "a/b/deep" "payload";
  create_file root0 "top" "up here";
  let (_ : int) = Cluster.run_propagation cluster in
  (* Host2 joins the replica set; it must end up with the full tree. *)
  let rid = ok (Cluster.add_replica cluster ~host:2 vref) in
  Alcotest.(check int) "fresh replica id" 3 rid;
  let phys2 = Option.get (Cluster.replica (Cluster.host cluster 2) vref) in
  Alcotest.(check int) "peer list grew" 3 (List.length (Physical.peers phys2));
  let fdir = ok (Physical.fetch_dir phys2 []) in
  let names = Fdir.live fdir |> List.map fst |> List.sort compare in
  Alcotest.(check (list string)) "populated" [ "a"; "top" ] names;
  (* And it participates in the volume from now on. *)
  Cluster.partition cluster [ [ 2 ]; [ 0; 1 ] ];
  let root2 = ok (Cluster.logical_root cluster 2 vref) in
  Alcotest.(check string) "serves alone" "payload" (read_file root2 "a/b/deep")

let test_new_replica_receives_notifications () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v1";
  let (_ : int) = Cluster.run_propagation cluster in
  let _rid = ok (Cluster.add_replica cluster ~host:2 vref) in
  (* A post-join update must reach the newcomer through the ordinary
     notification/propagation path. *)
  write_file root0 "f" "v2";
  let (_ : int) = Cluster.run_propagation cluster in
  let phys2 = Option.get (Cluster.replica (Cluster.host cluster 2) vref) in
  let fdir = ok (Physical.fetch_dir phys2 []) in
  let e = Option.get (Fdir.find_live fdir "f") in
  let _, data = ok (Physical.fetch_file phys2 [ e.Fdir.fid ]) in
  Alcotest.(check string) "notified and pulled" "v2" data

let test_remove_replica () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v1";
  let (_ : int) = Cluster.run_propagation cluster in
  ok (Cluster.remove_replica cluster ~host:2 vref);
  Alcotest.(check bool) "replica gone" true
    (Cluster.replica (Cluster.host cluster 2) vref = None);
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  Alcotest.(check int) "peer list shrank" 2 (List.length (Physical.peers phys0));
  (* The volume still works and still converges with two replicas. *)
  write_file root0 "f" "v2";
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  Alcotest.(check string) "still replicating" "v2" (read_file root1 "f")

let test_tombstone_gc_after_membership_change () =
  (* Removing a replica must unblock tombstone GC that was waiting for
     it (the GC quantifies over the *current* peer list). *)
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "doomed" "x";
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  (* host2 vanishes for good; then the file is deleted. *)
  Cluster.partition cluster [ [ 0; 1 ]; [ 2 ] ];
  ok (root0.Vnode.remove "doomed");
  (* With host2 still a peer, the tombstone cannot be collected... *)
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  Alcotest.(check bool) "tombstone pinned by absent peer" true
    (List.length (Fdir.entries (ok (Physical.fetch_dir phys0 []))) = 1);
  (* ...after retiring host2's replica, another round collects it. *)
  ok (Cluster.remove_replica cluster ~host:2 vref);
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  Alcotest.(check int) "tombstone collected" 0
    (List.length (Fdir.entries (ok (Physical.fetch_dir phys0 []))))

let test_reboot_under_load () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "before" "durable";
  let (_ : int) = Cluster.run_propagation cluster in
  (* host1 crashes with a notification still queued (not yet pumped). *)
  write_file root0 "before" "updated";
  ok (Cluster.reboot cluster 1);
  (* The datagram was queued before the crash; after reboot it is
     delivered and acted on (or reconciliation covers it). *)
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  Alcotest.(check string) "converged after reboot" "updated" (read_file root1 "before");
  (* And the rebooted host keeps serving its own clients. *)
  write_file root1 "before" "from host1";
  Alcotest.(check string) "rebooted host writes" "from host1" (read_file root1 "before")

let test_summaries_survive_reboot () =
  (* Subtree summary claims are flushed ahead of serving them (journaled
     like any metadata write), so a crash cannot forget a claim a peer
     may have used to prune. *)
  let cluster = Cluster.create ~journal_blocks:256 ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "data";
  let _ = ok (root0.Vnode.mkdir "d") in
  (* Converging makes host1 issue getdirvvs against host0, which flushes
     host0's pending summary claims to disk. *)
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  let summary_of phys =
    match (ok (Physical.get_version phys [])).Physical.vi_summary with
    | Some s -> s
    | None -> Alcotest.fail "root carries no summary"
  in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let before = summary_of phys0 in
  Alcotest.(check bool) "claims cover local events" true
    (Version_vector.get before 1 > 0);
  (* Age out the group commit, then crash. *)
  let (_ : int * Reconcile.stats) = Cluster.tick_daemons cluster 10 in
  ok (Cluster.reboot cluster 0);
  let phys0' = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  Alcotest.(check bool) "claims survive the crash" true
    (Version_vector.dominates (summary_of phys0') before)

let test_reboot_preserves_uniq_allocator () =
  let cluster = Cluster.create ~nhosts:1 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0 ]) in
  let root = ok (Cluster.logical_root cluster 0 vref) in
  create_file root "a" "1";
  ok (Cluster.reboot cluster 0);
  let root = ok (Cluster.logical_root cluster 0 vref) in
  create_file root "b" "2";
  let phys = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let fdir = ok (Physical.fetch_dir phys []) in
  let fids = Fdir.live fdir |> List.map (fun (_, e) -> Ids.fid_to_hex e.Fdir.fid) in
  Alcotest.(check int) "no fid reuse across reboot" (List.length fids)
    (List.length (List.sort_uniq compare fids))

let test_converge_reports_partitioned_failure () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "x";
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  (* Reconciliation cannot run across the cut; the ring round reports
     errors rather than pretending to converge. *)
  let stats = ok (Cluster.reconcile_ring cluster vref) in
  Alcotest.(check int) "both directions failed" 2 stats.Reconcile.errors

let suite =
  [
    case "add_replica populates the newcomer" test_add_replica_populates;
    case "new replica receives notifications" test_new_replica_receives_notifications;
    case "remove_replica" test_remove_replica;
    case "membership change unblocks tombstone GC" test_tombstone_gc_after_membership_change;
    case "reboot under load" test_reboot_under_load;
    case "reboot preserves the fid allocator" test_reboot_preserves_uniq_allocator;
    case "summaries survive a crash reboot" test_summaries_survive_reboot;
    case "reconcile reports partition errors" test_converge_reports_partitioned_failure;
  ]
