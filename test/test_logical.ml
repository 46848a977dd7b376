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

(* ------------------------------------------------------------------ *)
(* Most_recent with a failure detector: a host that stores a replica
   polls only the peers whose updates it may have missed. *)

(* Four hosts with gossip, the volume on each, membership settled.
   Reconciliation runs only when a test asks for it. *)
let gossip4 ?(propagation_delay = 0) () =
  let cluster =
    Cluster.create ~nhosts:4 ~gossip:Gossip.default_config ~propagation_delay
      ~reconcile_period:1_000_000 ()
  in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2; 3 ]) in
  let (_ : int) = Cluster.await_membership cluster ~max_rounds:64 in
  (cluster, vref)

(* One tick after every doubt so far, each replica completes a pass from
   each peer: every replica has caught up with every peer. *)
let catch_up cluster vref =
  Cluster.advance cluster 1;
  ignore (ok (Cluster.reconcile_all_pairs cluster vref))

let tick cluster n =
  for _ = 1 to n do
    ignore (Cluster.tick_daemons cluster 1)
  done

let logical_count cluster i name =
  Counters.get (Logical.counters (Cluster.logical (Cluster.host cluster i))) name

let rpc_calls cluster = Counters.get (Sim_net.counters (Cluster.net cluster)) "net.rpc.calls"

let test_caught_up_read_polls_nobody () =
  let cluster, vref = gossip4 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v";
  let (_ : int) = Cluster.run_propagation cluster in
  tick cluster 20;
  catch_up cluster vref;
  let polls = logical_count cluster 0 "logical.polls" and rpcs = rpc_calls cluster in
  Alcotest.(check string) "reads its own copy" "v" (read_file root0 "f");
  Alcotest.(check int) "no remote version poll" polls (logical_count cluster 0 "logical.polls");
  Alcotest.(check bool) "the peers were left unpolled" true
    (logical_count cluster 0 "logical.polls_skipped" > 0);
  Alcotest.(check int) "no RPC at all" rpcs (rpc_calls cluster)

let test_healed_read_polls_the_far_side () =
  (* The far side's write is never announced to host0: its notification
     is dropped at the partition.  Host0's detector hears host2 again
     only after the heal, which ends a silence longer than the suspect
     timeout: host2 is doubted, so the first read polls it, before any
     pass or pull could bring the bytes over. *)
  let cluster, vref = gossip4 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let root2 = ok (Cluster.logical_root cluster 2 vref) in
  create_file root0 "f" "old";
  let (_ : int) = Cluster.run_propagation cluster in
  catch_up cluster vref;
  Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3 ] ];
  write_file root2 "f" "new";
  tick cluster 20;
  Cluster.heal cluster;
  let g0 = Option.get (Cluster.gossip (Cluster.host cluster 0)) in
  let n = ref 0 in
  while Gossip.liveness g0 "host2" <> Gossip.Alive && !n < 64 do
    tick cluster 1;
    incr n
  done;
  let h0 = Cluster.host cluster 0 in
  Alcotest.(check int) "no notification reached host0" 0
    (Propagation.pending (Cluster.propagation h0));
  Alcotest.(check int) "no reconciliation pass ran" 0
    (Counters.get (Recon_daemon.counters (Cluster.reconciler h0)) "recon.passes");
  let phys0 = Option.get (Cluster.replica h0 vref) in
  let fid = ok (Fdir.find_live (ok (Physical.fetch_dir phys0 [])) "f" |> Option.to_result ~none:Errno.ENOENT) in
  Alcotest.(check string) "host0 still stores the old bytes" "old"
    (snd (ok (Physical.fetch_file phys0 [ fid.Fdir.fid ])));
  Alcotest.(check string) "first read: the far side's copy" "new" (read_file root0 "f")

let test_pending_notification_polls_its_origin () =
  (* A notification parks host2's new version in host0's new-version
     cache; the long propagation delay keeps it unpulled.  The read asks
     host2 — the entry's origin — and only host2. *)
  let cluster, vref = gossip4 ~propagation_delay:1_000 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let root2 = ok (Cluster.logical_root cluster 2 vref) in
  create_file root0 "f" "old";
  catch_up cluster vref;
  write_file root2 "f" "new";
  let (_ : int) = Cluster.pump cluster in
  let prop0 = Cluster.propagation (Cluster.host cluster 0) in
  let pending = Propagation.pending prop0 in
  Alcotest.(check bool) "the notification is pending" true (pending > 0);
  let ops = logical_count cluster 0 "logical.ops" in
  let polls = logical_count cluster 0 "logical.polls" in
  let skipped = logical_count cluster 0 "logical.polls_skipped" in
  Alcotest.(check string) "reads the newer copy" "new" (read_file root0 "f");
  let ops = logical_count cluster 0 "logical.ops" - ops in
  let polls = logical_count cluster 0 "logical.polls" - polls in
  let skipped = logical_count cluster 0 "logical.polls_skipped" - skipped in
  (* The lookup in the root directory polled nobody; each op on the
     file polled host2 alone. *)
  Alcotest.(check int) "the origin polled by each op on the file" (ops - 1) polls;
  Alcotest.(check int) "the other peers skipped" (3 + (2 * (ops - 1))) skipped;
  Alcotest.(check int) "still unpulled" pending (Propagation.pending prop0)

let test_reboot_polls_every_peer_until_caught_up () =
  let cluster, vref = gossip4 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v";
  let (_ : int) = Cluster.run_propagation cluster in
  catch_up cluster vref;
  (* Per op of one read: (remote polls, peers skipped). *)
  let read_cost () =
    let get = logical_count cluster 0 in
    let ops = get "logical.ops" and polls = get "logical.polls" in
    let skipped = get "logical.polls_skipped" in
    Alcotest.(check string) "read" "v" (read_file root0 "f");
    let ops = get "logical.ops" - ops in
    ((get "logical.polls" - polls) / ops, (get "logical.polls_skipped" - skipped) / ops)
  in
  Alcotest.(check (pair int int)) "caught up: nobody polled" (0, 3) (read_cost ());
  ok (Cluster.reboot cluster 0);
  Alcotest.(check (pair int int)) "rebooted: every peer polled" (3, 0) (read_cost ());
  (* A pass from host1 alone catches up with host1 alone. *)
  Cluster.advance cluster 1;
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let remote_root = ok (Cluster.connect_from cluster 0 ~host:"host1" ~vref ~rid:2) in
  ignore (ok (Reconcile.reconcile_volume ~local:phys0 ~remote_root ~remote_rid:2 ()));
  Alcotest.(check (pair int int)) "one pass: two peers polled" (2, 1) (read_cost ());
  catch_up cluster vref;
  Alcotest.(check (pair int int)) "a pass from each: nobody polled" (0, 3) (read_cost ())

let test_reconciled_version_polled_at_its_holder () =
  (* Host2 writes while cut off, so no notification reaches anyone.
     After the heal host3 reconciles from host2 and takes the version;
     host0 has caught up with host3 just before, but not with host2,
     which is cut off again before host0 could.  Host3's announcement of
     what reconciliation brought it makes host0 poll host3. *)
  let cluster, vref = gossip4 () in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let root2 = ok (Cluster.logical_root cluster 2 vref) in
  create_file root0 "f" "old";
  let (_ : int) = Cluster.run_propagation cluster in
  catch_up cluster vref;
  let alone_2 () = Cluster.partition cluster [ [ 2 ]; [ 0; 1; 3 ] ] in
  alone_2 ();
  write_file root2 "f" "new";
  tick cluster 20;
  Cluster.heal cluster;
  let hears i = Gossip.liveness (Option.get (Cluster.gossip (Cluster.host cluster i))) "host2" in
  let n = ref 0 in
  while (hears 0 <> Gossip.Alive || hears 3 <> Gossip.Alive) && !n < 64 do
    tick cluster 1;
    incr n
  done;
  (* No tick from here on: no gossip round doubts anyone. *)
  Cluster.advance cluster 1;
  let pass ~into ~from =
    let phys = Option.get (Cluster.replica (Cluster.host cluster into) vref) in
    let host = Printf.sprintf "host%d" from and rid = from + 1 in
    let remote_root = ok (Cluster.connect_from cluster into ~host ~vref ~rid) in
    ignore (ok (Reconcile.reconcile_volume ~local:phys ~remote_root ~remote_rid:rid ()))
  in
  pass ~into:0 ~from:3;
  pass ~into:3 ~from:2;
  let (_ : int) = Cluster.pump cluster in
  alone_2 ();
  let h0 = Cluster.host cluster 0 in
  Alcotest.(check int) "nothing pending at host0" 0 (Propagation.pending (Cluster.propagation h0));
  let polls = logical_count cluster 0 "logical.polls" in
  Alcotest.(check string) "host0 reads host3's copy" "new" (read_file root0 "f");
  Alcotest.(check bool) "host3 polled" true (logical_count cluster 0 "logical.polls" > polls)

(* The window a lost notification leaves.  Under 10% datagram loss each
   host writes its own file in turn, one write every 10 ticks, and pulls
   wait 5 ticks; after every tick each host reads every file, and a read
   older than what the polling oracle selects is stale.  A delivered
   notification makes the reader poll the writer until its pull, so a
   stale read needs a lost one: such reads are rare, and younger than
   one reconciliation rotation (peers x period ticks), by when a pass
   has brought the version over or a failure has made the writer
   doubted. *)
let test_staleness_under_loss () =
  let period = 20 and nhosts = 4 in
  let cluster =
    Cluster.create ~seed:3 ~nhosts ~gossip:Gossip.default_config ~propagation_delay:5
      ~reconcile_period:period ()
  in
  let hosts = List.init nhosts Fun.id in
  let vref = ok (Cluster.create_volume cluster ~on:hosts) in
  let (_ : int) = Cluster.await_membership cluster ~max_rounds:64 in
  let roots = Array.of_list (List.map (fun i -> ok (Cluster.logical_root cluster i vref)) hosts) in
  let name h = Printf.sprintf "f%d" h in
  List.iter (fun h -> create_file roots.(0) (name h) "") hosts;
  let (_ : int) = Cluster.run_propagation cluster in
  ignore (ok (Cluster.converge cluster vref ()));
  Cluster.set_faults cluster { Sim_net.no_faults with Sim_net.loss = 0.1 };
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let root_dir = ok (Physical.fetch_dir phys0 []) in
  let fid h = (Option.get (Fdir.find_live root_dir (name h))).Fdir.fid in
  (* Per file, every version written, newest first: (tick, bytes). *)
  let history = Array.make nhosts [ (0, "") ] in
  let now () = Clock.now (Cluster.clock cluster) in
  let reads = ref 0 and stale = ref 0 and oldest = ref 0 in
  for step = 1 to 800 do
    if step mod 10 = 1 then begin
      let h = step / 10 mod nhosts in
      let data = Printf.sprintf "h%d:%d" h step in
      write_file roots.(h) (name h) data;
      history.(h) <- (now (), data) :: history.(h)
    end;
    tick cluster 1;
    List.iter
      (fun i ->
        List.iter
          (fun h ->
            let got = read_file roots.(i) (name h) in
            let want = Poll_oracle.acceptable cluster vref i [ fid h ] in
            incr reads;
            if not (List.mem (Ok got) want) then begin
              (* The versions after the one read, oldest last. *)
              let rec missed acc = function
                | (_, d) :: _ when d = got -> acc
                | v :: rest -> missed (v :: acc) rest
                | [] -> Alcotest.failf "host%d read bytes never written: %S" i got
              in
              match missed [] history.(h) with
              | [] -> Alcotest.failf "host%d read %S, newer than the oracle's" i got
              | (first, _) :: _ ->
                incr stale;
                oldest := max !oldest (now () - first)
            end)
          hosts)
      hosts
  done;
  let sum name = List.fold_left (fun n i -> n + logical_count cluster i name) 0 hosts in
  Printf.printf "staleness under 10%% loss: %d of %d reads stale, oldest %d ticks; %d polls, %d skipped\n" !stale
    !reads !oldest (sum "logical.polls") (sum "logical.polls_skipped");
  Alcotest.(check bool) "stale reads are rare" true (!stale * 100 < !reads);
  Alcotest.(check bool) "stale reads are younger than one rotation" true
    (!oldest < (nhosts - 1) * period)

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
    case "caught up: a read polls no peer" test_caught_up_read_polls_nobody;
    case "healed: the first read polls the far side" test_healed_read_polls_the_far_side;
    case "pending notification: the read polls its origin"
      test_pending_notification_polls_its_origin;
    case "rebooted: every peer polled until caught up"
      test_reboot_polls_every_peer_until_caught_up;
    case "reconciled: the holder is polled" test_reconciled_version_polled_at_its_holder;
    case "staleness under loss" test_staleness_under_loss;
  ]
