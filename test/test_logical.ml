(* The logical layer: replica selection, failover, concurrency control,
   autografting and pruning. *)

open Util

let cluster3 () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  (cluster, vref)

let test_failover_to_any_accessible_replica () =
  let cluster, vref = cluster3 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v";
  let (_ : int) = Cluster.run_propagation cluster in
  (* Cut host0 off from host1 but keep host2: a client on host0 keeps
     working because one replica (its own, plus host2's) is accessible. *)
  Cluster.partition cluster [ [ 0; 2 ]; [ 1 ] ];
  Alcotest.(check string) "still readable" "v" (read_file root0 "f");
  write_file root0 "f" "updated";
  Alcotest.(check string) "still writable" "updated" (read_file root0 "f")

let test_total_isolation_still_serves_local_replica () =
  let cluster, vref = cluster3 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v";
  Cluster.partition cluster [ [ 0 ]; [ 1 ]; [ 2 ] ];
  Alcotest.(check string) "local replica serves" "v" (read_file root0 "f");
  write_file root0 "f" "lonely update";
  Alcotest.(check string) "update accepted" "lonely update" (read_file root0 "f")

let test_client_without_local_replica () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  (* host2 stores nothing; it works purely through NFS. *)
  let root2 = ok (Cluster.logical_root cluster 2 vref) in
  create_file root2 "from2" "remote create";
  Alcotest.(check string) "reads back" "remote create" (read_file root2 "from2");
  (* If every replica becomes unreachable, operations fail cleanly. *)
  Cluster.partition cluster [ [ 2 ]; [ 0; 1 ] ];
  expect_err Errno.EUNREACHABLE (Result.map (fun _ -> ()) (root2.Vnode.readdir ()))

let test_most_recent_selection () =
  (* After divergence, a reader that can see both replicas gets the most
     recent version (the paper's default policy). *)
  let cluster = Cluster.create ~nhosts:3 ~selection:Logical.Most_recent () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "old";
  let (_ : int) = Cluster.run_propagation cluster in
  (* host1 updates while host0 is cut off; host2 can see both. *)
  Cluster.partition cluster [ [ 0 ]; [ 1; 2 ] ];
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  write_file root1 "f" "newest";
  let root2 = ok (Cluster.logical_root cluster 2 vref) in
  Alcotest.(check string) "reads the newest accessible copy" "newest" (read_file root2 "f");
  (* host0 reads its own copy and marks host1's replica unreachable.
     One tick after the heal the mark has lapsed, so the version poll
     sees the far side's newer write again. *)
  Alcotest.(check string) "cut off: own copy" "old" (read_file root0 "f");
  Cluster.heal cluster;
  Cluster.advance cluster 1;
  Alcotest.(check string) "healed: newest copy" "newest" (read_file root0 "f")

(* Retransmissions [Nfs_client.mount] makes by default after a failed
   idempotent call. *)
let nfs_max_retries = 3

let failed_rpcs cluster =
  Counters.get (Sim_net.counters (Cluster.net cluster)) "net.rpc.failed"

(* Failed RPCs spent by [k] reads at host0 within one tick of a 2|2
   partition of a volume stored on all four hosts. *)
let partitioned_read_cost k =
  let cluster = Cluster.create ~nhosts:4 ~selection:Logical.Most_recent () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2; 3 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v";
  let (_ : int) = Cluster.run_propagation cluster in
  Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3 ] ];
  let before = failed_rpcs cluster in
  for _ = 1 to k do
    Alcotest.(check string) "read" "v" (read_file root0 "f")
  done;
  failed_rpcs cluster - before

let test_partition_cost_flat_in_op_count () =
  (* Each cut-off replica fails once (with the NFS client's in-tick
     retransmissions) and is then skipped for the rest of the tick, so
     the cost of a partition does not grow with the number of ops. *)
  let one = partitioned_read_cost 1 and twenty = partitioned_read_cost 20 in
  Alcotest.(check bool) "the far side was tried" true (one > 0);
  Alcotest.(check int) "20 reads cost what 1 costs" one twenty;
  Alcotest.(check bool) "at most one failed call per cut-off peer" true
    (twenty <= 2 * (1 + nfs_max_retries))

let test_marked_replica_still_serves_after_heal () =
  (* A replica marked unreachable is skipped by the first pass only: an
     object that exists nowhere else is still found, in the same tick
     as the heal, by the retry pass. *)
  let cluster = Cluster.create ~nhosts:2 ~selection:Logical.Most_recent () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  create_file root0 "f" "v";
  let (_ : int) = Cluster.run_propagation cluster in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  create_file root1 "only-on-1" "far";
  Alcotest.(check string) "cut off: own copy" "v" (read_file root0 "f");
  let counters = Logical.counters (Cluster.logical (Cluster.host cluster 0)) in
  let get = Counters.get counters in
  let retries = get "logical.retry_pass" and skips = get "logical.skipped_unreachable" in
  Cluster.heal cluster;
  Alcotest.(check string) "served by the marked replica" "far" (read_file root0 "only-on-1");
  Alcotest.(check bool) "the first pass skipped it" true
    (get "logical.skipped_unreachable" > skips);
  Alcotest.(check int) "found by the retry pass" (retries + 1) (get "logical.retry_pass")

let test_open_close_lock_bookkeeping () =
  let cluster, vref = cluster3 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "x";
  let log = Cluster.logical (Cluster.host cluster 0) in
  let f1 = ok (root0.Vnode.lookup "f") in
  let f2 = ok (root0.Vnode.lookup "f") in
  ok (f1.Vnode.openv Vnode.Read_only);
  ok (f2.Vnode.openv Vnode.Read_only);
  Alcotest.(check int) "lock table" 1 (Logical.open_locks log);
  (* A writer is excluded while readers hold the file. *)
  let f3 = ok (root0.Vnode.lookup "f") in
  expect_err Errno.EAGAIN (f3.Vnode.openv Vnode.Write_only);
  ok (f1.Vnode.closev ());
  ok (f2.Vnode.closev ());
  ok (f3.Vnode.openv Vnode.Write_only);
  (* And a second writer or reader is excluded by the writer. *)
  expect_err Errno.EAGAIN (f1.Vnode.openv Vnode.Read_only);
  ok (f3.Vnode.closev ());
  Alcotest.(check int) "all released" 0 (Logical.open_locks log)

let test_open_reaches_physical_layer_through_nfs () =
  (* The whole point of the overloaded lookup: a remote physical layer
     observes opens even though NFS discards openv. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 1 ]) in
  (* Only host1 stores the volume; host0's logical layer is remote. *)
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "x";
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let before = Counters.get (Physical.counters phys1) "phys.open.ctl" in
  let f = ok (root0.Vnode.lookup "f") in
  ok (f.Vnode.openv Vnode.Read_only);
  Alcotest.(check int) "physical layer saw the open" (before + 1)
    (Counters.get (Physical.counters phys1) "phys.open.ctl");
  Alcotest.(check int) "open accounted" 1 (Physical.open_files phys1);
  ok (f.Vnode.closev ());
  Alcotest.(check int) "close accounted" 0 (Physical.open_files phys1)

let test_autograft_on_path_translation () =
  let cluster = Cluster.create ~nhosts:2 () in
  let parent_vol = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let child_vol = ok (Cluster.create_volume cluster ~on:[ 1 ]) in
  (* Plant a graft point for child_vol inside parent_vol. *)
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) parent_vol) in
  ok
    (Physical.make_graft_point phys0 ~parent:[] ~name:"projects" ~target:child_vol
       ~replicas:[ (1, "host1") ]);
  (* Put a file inside the child volume. *)
  let child_root = ok (Cluster.logical_root cluster 1 child_vol) in
  create_file child_root "readme" "inside the grafted volume";
  (* A client on host0 walks across the graft point without ever naming
     the child volume. *)
  let root0 = ok (Cluster.logical_root cluster 0 parent_vol) in
  let log0 = Cluster.logical (Cluster.host cluster 0) in
  Alcotest.(check int) "nothing autografted yet" 0
    (Counters.get (Logical.counters log0) "logical.autograft");
  Alcotest.(check string) "transparent crossing" "inside the grafted volume"
    (read_file root0 "projects/readme");
  Alcotest.(check int) "one autograft" 1
    (Counters.get (Logical.counters log0) "logical.autograft");
  (* A second walk reuses the existing graft. *)
  Alcotest.(check string) "again" "inside the grafted volume"
    (read_file root0 "projects/readme");
  Alcotest.(check int) "still one autograft" 1
    (Counters.get (Logical.counters log0) "logical.autograft")

let test_graft_pruning () =
  let cluster = Cluster.create ~nhosts:2 () in
  let parent_vol = ok (Cluster.create_volume cluster ~on:[ 0 ]) in
  let child_vol = ok (Cluster.create_volume cluster ~on:[ 1 ]) in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) parent_vol) in
  ok
    (Physical.make_graft_point phys0 ~parent:[] ~name:"g" ~target:child_vol
       ~replicas:[ (1, "host1") ]);
  let child_root = ok (Cluster.logical_root cluster 1 child_vol) in
  create_file child_root "f" "x";
  let root0 = ok (Cluster.logical_root cluster 0 parent_vol) in
  let log0 = Cluster.logical (Cluster.host cluster 0) in
  Alcotest.(check string) "crossing grafts" "x" (read_file root0 "g/f");
  let grafted_before = List.length (Logical.grafted log0) in
  (* Not yet idle: nothing pruned. *)
  Alcotest.(check int) "too fresh to prune" 0 (Logical.prune_grafts log0 ~idle:100);
  Cluster.advance cluster 200;
  Alcotest.(check int) "pruned when idle" 1 (Logical.prune_grafts log0 ~idle:100);
  Alcotest.(check int) "one fewer graft" (grafted_before - 1)
    (List.length (Logical.grafted log0));
  (* The explicit graft of the parent volume survives pruning... *)
  Alcotest.(check string) "re-grafts on demand" "x" (read_file root0 "g/f")

let test_reset_connections_recovers () =
  let cluster, vref = cluster3 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v";
  let log0 = Cluster.logical (Cluster.host cluster 0) in
  Logical.reset_connections log0;
  Alcotest.(check string) "reconnects lazily" "v" (read_file root0 "f")

let test_cross_volume_rename_rejected () =
  let cluster = Cluster.create ~nhosts:2 () in
  let v1 = ok (Cluster.create_volume cluster ~on:[ 0 ]) in
  let v2 = ok (Cluster.create_volume cluster ~on:[ 1 ]) in
  let r1 = ok (Cluster.logical_root cluster 0 v1) in
  let r2 = ok (Cluster.logical_root cluster 0 v2) in
  create_file r1 "f" "x";
  (* Directory references do not cross volume boundaries (paper §4.1). *)
  expect_err Errno.EXDEV (r1.Vnode.rename "f" r2 "f");
  let f = ok (r1.Vnode.lookup "f") in
  expect_err Errno.EXDEV (r2.Vnode.link f "alias")

let test_reserved_names_not_creatable () =
  let cluster = Cluster.create ~nhosts:1 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0 ]) in
  let root = ok (Cluster.logical_root cluster 0 vref) in
  (* Handle-shaped and control-prefixed names are reserved by the layer
     protocol and must be rejected as user file names. *)
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (root.Vnode.create "@00000001.00000002"));
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (root.Vnode.create ".#ficus#open#."));
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (root.Vnode.mkdir "a/b"));
  expect_err Errno.EINVAL
    (Result.map (fun _ -> ()) (root.Vnode.create (String.make 201 'x')))

let test_lock_released_even_if_remote_close_fails () =
  (* The concurrency-control bookkeeping is local; a partition at close
     time must not wedge the lock. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "x";
  let f = ok (root0.Vnode.lookup "f") in
  ok (f.Vnode.openv Vnode.Write_only);
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  ok (f.Vnode.closev ());
  Cluster.heal cluster;
  let log0 = Cluster.logical (Cluster.host cluster 0) in
  Alcotest.(check int) "lock released" 0 (Logical.open_locks log0);
  ok (f.Vnode.openv Vnode.Write_only);
  ok (f.Vnode.closev ())

let suite =
  [
    case "failover to any accessible replica" test_failover_to_any_accessible_replica;
    case "cross-volume rename/link rejected" test_cross_volume_rename_rejected;
    case "reserved names not creatable" test_reserved_names_not_creatable;
    case "lock released despite partition at close" test_lock_released_even_if_remote_close_fails;
    case "total isolation still serves local replica"
      test_total_isolation_still_serves_local_replica;
    case "client without local replica" test_client_without_local_replica;
    case "most-recent selection" test_most_recent_selection;
    case "partition cost flat in op count" test_partition_cost_flat_in_op_count;
    case "marked replica still serves after heal"
      test_marked_replica_still_serves_after_heal;
    case "open/close lock bookkeeping" test_open_close_lock_bookkeeping;
    case "open reaches physical layer through NFS"
      test_open_reaches_physical_layer_through_nfs;
    case "autograft on path translation" test_autograft_on_path_translation;
    case "graft pruning" test_graft_pruning;
    case "reset connections recovers" test_reset_connections_recovers;
  ]
