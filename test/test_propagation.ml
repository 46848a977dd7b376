(* Update notification and the propagation daemon: hints, burst
   collapse, retry/abandon, and the reconciliation backstop under 100%
   notification loss. *)

open Util

let test_notification_drives_propagation () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "pushed";
  let prop1 = Cluster.propagation (Cluster.host cluster 1) in
  Alcotest.(check int) "nothing pending before delivery" 0 (Propagation.pending prop1);
  let (_ : int) = Cluster.pump cluster in
  Alcotest.(check bool) "hint parked in the cache" true (Propagation.pending prop1 > 0);
  let (_ : int) = Propagation.run_once prop1 in
  let (_ : int) = Cluster.run_propagation cluster in
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let fdir = ok (Physical.fetch_dir phys1 []) in
  let e = Option.get (Fdir.find_live fdir "f") in
  let _, data = ok (Physical.fetch_file phys1 [ e.Fdir.fid ]) in
  Alcotest.(check string) "propagated" "pushed" data

let test_burst_collapses_in_cache () =
  (* Delayed propagation absorbs a burst of updates into one pull
     (paper §3.2: "delayed propagation may reduce the overall
     propagation cost when updates are bursty"). *)
  let cluster = Cluster.create ~nhosts:2 ~propagation_delay:10 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "hot" "v0";
  let (_ : int) = Cluster.run_propagation cluster in
  Cluster.advance cluster 20;
  let (_ : int) = Cluster.run_propagation cluster in
  let prop1 = Cluster.propagation (Cluster.host cluster 1) in
  let pulls_before = Counters.get (Propagation.counters prop1) "prop.pull.file" in
  for i = 1 to 10 do
    write_file root0 "hot" (Printf.sprintf "v%d" i)
  done;
  let (_ : int) = Cluster.pump cluster in
  (* All ten notifications arrive before the delay expires: one entry. *)
  Alcotest.(check int) "collapsed to one pending entry" 1 (Propagation.pending prop1);
  Cluster.advance cluster 11;
  let (_ : int) = Cluster.run_propagation cluster in
  let pulls_after = Counters.get (Propagation.counters prop1) "prop.pull.file" in
  Alcotest.(check int) "a single pull" 1 (pulls_after - pulls_before);
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let fdir = ok (Physical.fetch_dir phys1 []) in
  let e = Option.get (Fdir.find_live fdir "hot") in
  let _, data = ok (Physical.fetch_file phys1 [ e.Fdir.fid ]) in
  Alcotest.(check string) "latest version" "v10" data

let test_retry_then_abandon () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "x";
  (* Deliver the notification, then cut the link before the pull.
     Retries now back off on the clock, so drive time forward. *)
  let (_ : int) = Cluster.pump cluster in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let prop1 = Cluster.propagation (Cluster.host cluster 1) in
  for _ = 1 to 600 do
    ignore (Propagation.run_once prop1);
    Cluster.advance cluster 1
  done;
  Alcotest.(check bool) "retried" true
    (Counters.get (Propagation.counters prop1) "prop.retries" > 0);
  Alcotest.(check bool) "eventually abandoned" true
    (Counters.get (Propagation.counters prop1) "prop.abandoned" > 0);
  Alcotest.(check int) "queue drained" 0 (Propagation.pending prop1)

let test_backoff_grows_and_reconciliation_converges () =
  (* The gap between successive retry attempts of one entry must grow
     (exponential backoff: each wait is in [b, 2b) with b doubling, so
     gaps are strictly increasing even with jitter).  A single synthetic
     entry against an always-unreachable origin isolates the schedule. *)
  let _, fs = fresh_ufs () in
  let clock = Clock.create () in
  let vref = { Ids.alloc = 0; vol = 1 } in
  let phys =
    ok
      (Physical.create ~obs:(Obs.create ()) ~container:(Ufs_vnode.root fs) ~clock ~host:"me" ~vref ~rid:2
         ~peers:[ (1, "origin"); (2, "me") ] ())
  in
  let connect ~host:_ ~vref:_ ~rid:_ = Error Errno.EUNREACHABLE in
  let prop =
    Propagation.create ~delay:0 ~obs:(Obs.create ())
      ~detector:Gossip.no_detector ~clock ~host:"me" ~connect
      ~local_replica:(fun v -> if Ids.vref_equal v vref then Some phys else None)
      ()
  in
  let fid = { Ids.issuer = 9; uniq = 1 } in
  Propagation.on_notify prop
    {
      Notify.vref;
      fidpath = [ fid ];
      fid;
      kind = Aux_attrs.Freg;
      origin_rid = 1;
      origin_host = "origin";
      span = 0;
      vv = Version_vector.empty;
    };
  let attempt_ticks = ref [] in
  for tick = 0 to 599 do
    if Propagation.run_once prop > 0 then attempt_ticks := tick :: !attempt_ticks;
    Clock.advance clock 1
  done;
  let ticks = List.rev !attempt_ticks in
  Alcotest.(check bool) "several attempts" true (List.length ticks >= 3);
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "gaps strictly grow" true (increasing (gaps ticks));
  Alcotest.(check bool) "backoff ticks recorded" true
    (Counters.get (Propagation.counters prop) "prop.backoff_ticks" > 0);
  Alcotest.(check bool) "abandoned" true
    (Counters.get (Propagation.counters prop) "prop.abandoned" > 0);
  Alcotest.(check int) "queue drained" 0 (Propagation.pending prop);
  (* And in a full cluster, an abandoned entry still converges via the
     reconciliation backstop once the partition heals. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let cvref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 cvref) in
  create_file root0 "f" "survives";
  let (_ : int) = Cluster.pump cluster in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let prop1 = Cluster.propagation (Cluster.host cluster 1) in
  for _ = 1 to 600 do
    ignore (Propagation.run_once prop1);
    Cluster.advance cluster 1
  done;
  Alcotest.(check bool) "cluster entry abandoned" true
    (Counters.get (Propagation.counters prop1) "prop.abandoned" > 0);
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster cvref ()) in
  let root1 = ok (Cluster.logical_root cluster 1 cvref) in
  Alcotest.(check string) "converged via reconciliation" "survives"
    (read_file root1 "f")

let test_convergence_with_total_notification_loss () =
  (* Notifications are an optimization only: with every datagram lost,
     reconciliation alone must still converge the replicas. *)
  let cluster = Cluster.create ~nhosts:2 () in
  Cluster.set_faults cluster { Sim_net.no_faults with loss = 1.0 };
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "a" "1";
  create_file root0 "b" "2";
  let (_ : int) = Cluster.run_propagation cluster in
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  Alcotest.(check (list string)) "nothing propagated" []
    (Fdir.live (ok (Physical.fetch_dir phys1 [])) |> List.map fst);
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  Alcotest.(check string) "a arrived by reconciliation" "1" (read_file root1 "a");
  Alcotest.(check string) "b arrived by reconciliation" "2" (read_file root1 "b")

let test_propagation_of_new_directory_trees () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (Namei.mkdir_p ~root:root0 "deep/nested/tree") in
  create_file root0 "deep/nested/tree/leaf" "found me";
  let (_ : int) = Cluster.run_propagation cluster in
  (* The whole subtree must exist at host1's replica without any
     reconciliation pass. *)
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let rec descend path names =
    match names with
    | [] -> path
    | n :: rest ->
      let fdir = ok (Physical.fetch_dir phys1 path) in
      let e = Option.get (Fdir.find_live fdir n) in
      descend (path @ [ e.Fdir.fid ]) rest
  in
  let leaf_path = descend [] [ "deep"; "nested"; "tree"; "leaf" ] in
  let _, data = ok (Physical.fetch_file phys1 leaf_path) in
  Alcotest.(check string) "leaf content propagated" "found me" data

let test_own_updates_ignored () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "x";
  let (_ : int) = Cluster.run_propagation cluster in
  let prop0 = Cluster.propagation (Cluster.host cluster 0) in
  (* host0's own update must not end up in host0's cache. *)
  Alcotest.(check int) "no self-pull pending" 0 (Propagation.pending prop0)

let suite =
  [
    case "notification drives propagation" test_notification_drives_propagation;
    case "burst collapses to one pull" test_burst_collapses_in_cache;
    case "retry then abandon" test_retry_then_abandon;
    case "backoff grows, reconciliation backstops" test_backoff_grows_and_reconciliation_converges;
    case "reconciliation backstop under 100% loss"
      test_convergence_with_total_notification_loss;
    case "new directory trees propagate" test_propagation_of_new_directory_trees;
    case "own updates ignored" test_own_updates_ignored;
  ]
