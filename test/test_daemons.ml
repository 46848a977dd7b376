(* The long-running deployment story: daemons alone (notification pump,
   propagation, periodic reconciliation) converge the system — nobody
   calls converge() by hand.  Plus the NFS file-block cache staleness
   the paper complains about (§2.2). *)

open Util

let test_daemons_converge_without_explicit_reconcile () =
  let cluster = Cluster.create ~nhosts:3 ~reconcile_period:50 () in
  Cluster.set_faults cluster { Sim_net.no_faults with loss = 1.0 };
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "slow-news" "travels anyway";
  (* Every notification is lost; only the periodic reconcilers can move
     the data.  Tick simulated time forward and let them fire. *)
  for _ = 1 to 12 do
    let (_ : int * Reconcile.stats) = Cluster.tick_daemons cluster 25 in
    ()
  done;
  List.iter
    (fun i ->
      let phys = Option.get (Cluster.replica (Cluster.host cluster i) vref) in
      let fdir = ok (Physical.fetch_dir phys []) in
      match Fdir.find_live fdir "slow-news" with
      | None -> Alcotest.failf "host%d never converged" i
      | Some e ->
        let _, data = ok (Physical.fetch_file phys [ e.Fdir.fid ]) in
        Alcotest.(check string) (Printf.sprintf "host%d content" i) "travels anyway" data)
    [ 1; 2 ]

let test_recon_daemon_period_respected () =
  let cluster = Cluster.create ~nhosts:2 ~reconcile_period:100 () in
  let _vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let recon = Cluster.reconciler (Cluster.host cluster 0) in
  Alcotest.(check bool) "not due yet" true (Recon_daemon.tick recon = None);
  Cluster.advance cluster 99;
  Alcotest.(check bool) "still not due" true (Recon_daemon.tick recon = None);
  Cluster.advance cluster 1;
  Alcotest.(check bool) "fires at the period" true (Recon_daemon.tick recon <> None);
  Alcotest.(check bool) "and re-arms" true (Recon_daemon.tick recon = None);
  Alcotest.(check int) "one pass counted" 1
    (Counters.get (Recon_daemon.counters recon) "recon.passes")

let test_recon_daemon_rotates_peers () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  let root2 = ok (Cluster.logical_root cluster 2 vref) in
  create_file root1 "at1" "1";
  create_file root2 "at2" "2";
  (* host0's daemon alone, with all datagrams delivered nowhere (we never
     pump), must still pick both peers over successive forced passes. *)
  let recon = Cluster.reconciler (Cluster.host cluster 0) in
  let (_ : Reconcile.stats) = Recon_daemon.force recon in
  let (_ : Reconcile.stats) = Recon_daemon.force recon in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let names =
    Fdir.live (ok (Physical.fetch_dir phys0 [])) |> List.map fst |> List.sort compare
  in
  Alcotest.(check (list string)) "pulled from both peers" [ "at1"; "at2" ] names;
  Alcotest.(check int) "two pair reconciliations" 2
    (Counters.get (Recon_daemon.counters recon) "recon.pairs")

let test_recon_daemon_survives_unreachable_peer () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  ignore vref;
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let recon = Cluster.reconciler (Cluster.host cluster 0) in
  let stats = Recon_daemon.force recon in
  Alcotest.(check int) "error counted" 1 stats.Reconcile.errors;
  Alcotest.(check int) "counter too" 1
    (Counters.get (Recon_daemon.counters recon) "recon.errors")

(* ---------------- NFS file-block cache ---------------- *)

let nfs_pair ?data_ttl () =
  let clock = Clock.create () in
  let net = Sim_net.create clock in
  let server_id = Sim_net.add_host net "server" in
  let client_id = Sim_net.add_host net "client" in
  let _, fs = fresh_ufs () in
  let server = Nfs_server.create net ~host:server_id in
  Nfs_server.add_export server ~name:"export" (Ufs_vnode.root fs);
  let m = ok (Nfs_client.mount ?data_ttl net ~client:client_id ~server:server_id ~export:"export") in
  (clock, fs, m)

let test_data_cache_serves_stale_reads () =
  let clock, fs, m = nfs_pair ~data_ttl:10 () in
  let root = Nfs_client.root m in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "original");
  Alcotest.(check string) "first read" "original" (ok (f.Vnode.read ~off:0 ~len:8));
  (* Server-side change behind the client's back. *)
  let inum = ok (Ufs.dir_lookup fs (Ufs.root fs) "f") in
  ok (Ufs.write fs inum ~off:0 "CHANGED!");
  Alcotest.(check string) "stale cached read" "original" (ok (f.Vnode.read ~off:0 ~len:8));
  Alcotest.(check int) "served from cache" 1
    (Counters.get (Nfs_client.counters m) "nfs.client.data_hits");
  Clock.advance clock 11;
  Alcotest.(check string) "fresh after TTL" "CHANGED!" (ok (f.Vnode.read ~off:0 ~len:8))

let test_data_cache_own_writes_invalidate () =
  let _, _, m = nfs_pair ~data_ttl:10 () in
  let root = Nfs_client.root m in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "one");
  Alcotest.(check string) "read" "one" (ok (f.Vnode.read ~off:0 ~len:3));
  ok (f.Vnode.write ~off:0 "two");
  Alcotest.(check string) "own write visible" "two" (ok (f.Vnode.read ~off:0 ~len:3))

let test_data_cache_disabled_by_default () =
  let _, fs, m = nfs_pair () in
  let root = Nfs_client.root m in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "original");
  let _ = ok (f.Vnode.read ~off:0 ~len:8) in
  let inum = ok (Ufs.dir_lookup fs (Ufs.root fs) "f") in
  ok (Ufs.write fs inum ~off:0 "CHANGED!");
  Alcotest.(check string) "always fresh when disabled" "CHANGED!"
    (ok (f.Vnode.read ~off:0 ~len:8))

let suite =
  [
    case "daemons converge without explicit reconcile"
      test_daemons_converge_without_explicit_reconcile;
    case "reconciler period respected" test_recon_daemon_period_respected;
    case "reconciler rotates peers" test_recon_daemon_rotates_peers;
    case "reconciler survives unreachable peer" test_recon_daemon_survives_unreachable_peer;
    case "NFS data cache serves stale reads" test_data_cache_serves_stale_reads;
    case "NFS data cache invalidated by own writes" test_data_cache_own_writes_invalidate;
    case "NFS data cache disabled by default" test_data_cache_disabled_by_default;
  ]
