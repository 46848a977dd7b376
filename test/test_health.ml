(* The health plane: the convergence watchdog's divergence gauge is
   held to its exact meaning — zero iff every replica dominates every
   installed version — over random partition/write/tick schedules, and
   a quiescent cluster soaked for thousands of ticks must raise no
   events at all (no false positives).  Plus unit coverage for the SLO
   classifier's confirm/edge-trigger semantics and the tick profiler. *)

open Util

let prop name ?(count = 100) arb f = QCheck.Test.make ~name ~count arb f

(* ------------------------------------------------------------------ *)
(* Ground truth: an independent walk of every replica's namespace.      *)

(* Collect (fidpath, version vector) for everything a replica stores,
   root included — written against the Physical API directly so it
   shares no code with the cluster's watchdog walk. *)
let version_map phys =
  let acc = ref [] in
  (match Physical.get_version phys [] with
  | Ok vi -> acc := ("", vi.Physical.vi_vv) :: !acc
  | Error _ -> ());
  let rec go path =
    match Physical.fetch_dir phys path with
    | Error _ -> ()
    | Ok fdir ->
      List.iter
        (fun (_name, (e : Fdir.entry)) ->
          let p = path @ [ e.Fdir.fid ] in
          (match Physical.get_version phys p with
          | Ok vi -> acc := (Ids.fidpath_to_string p, vi.Physical.vi_vv) :: !acc
          | Error _ -> ());
          match e.Fdir.kind with
          | Aux_attrs.Fdir | Aux_attrs.Fgraft -> go p
          | Aux_attrs.Freg -> ())
        (Fdir.live fdir)
  in
  go [];
  !acc

(* All replicas dominate all installed versions: for every ordered
   replica pair (a, b), every path b stores is present at a with a
   dominating version vector. *)
let all_dominate physes =
  let maps = List.map version_map physes in
  List.for_all
    (fun ma ->
      List.for_all
        (fun mb ->
          ma == mb
          || List.for_all
               (fun (key, vvb) ->
                 match List.assoc_opt key ma with
                 | None -> false
                 | Some vva -> Version_vector.dominates vva vvb)
               mb)
        maps)
    maps

(* ------------------------------------------------------------------ *)
(* qcheck: gauge = 0  <=>  converged, under random schedules            *)

let step_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun h f tag ->
              Schedule.Write (h, Printf.sprintf "f%d" f, Printf.sprintf "h%d:%d" h tag))
            (int_bound 2) (int_bound 3) (int_bound 99) );
        (4, map (fun n -> Schedule.Tick (1 + (9 * n))) (int_bound 8));
        ( 2,
          map
            (fun cut -> Schedule.Partition [ [ cut ]; List.filter (( <> ) cut) [ 0; 1; 2 ] ])
            (int_bound 2) );
        (3, return Schedule.Heal);
      ])

let schedule_arb =
  QCheck.make ~print:Schedule.to_string QCheck.Gen.(list_size (int_bound 20) step_gen)

(* Run one schedule on a health-enabled 3-host cluster, forcing a
   watchdog sample after every step and checking the gauge's iff
   against ground truth each time. *)
let gauge_matches_ground_truth schedule =
  let cluster =
    Cluster.create ~seed:11 ~nhosts:3 ~propagation_delay:10 ~reconcile_period:30
      ~health:Health.default_config ()
  in
  let hosts = [ 0; 1; 2 ] in
  match Cluster.create_volume cluster ~on:hosts with
  | Error _ -> false
  | Ok vref ->
    let s = Schedule.start cluster vref in
    let m = (Cluster.obs cluster).Obs.metrics in
    let physes () =
      List.filter_map (fun i -> Cluster.replica (Cluster.host cluster i) vref) hosts
    in
    let check () =
      Cluster.health_sample_now cluster;
      let gauge = Metrics.gauge m "health.divergence_age" in
      gauge = 0 = all_dominate (physes ())
    in
    List.for_all (fun i -> Result.is_ok (Schedule.root s i)) hosts
    && List.for_all
         (fun step ->
           ignore (Schedule.apply s step);
           check ())
         schedule
    && begin
         (* Heal and settle: the gauge must come back to zero once the
            schedule's damage is actually repaired. *)
         ignore
           (Schedule.run_all s
              Schedule.((Heal :: List.init 12 (fun _ -> Tick 30)) @ [ Converge 30 ]));
         check ()
       end

let divergence_props =
  [
    prop "divergence gauge = 0 iff all replicas dominate" ~count:30 schedule_arb
      gauge_matches_ground_truth;
  ]

(* ------------------------------------------------------------------ *)
(* Quiescent soak: no false positives                                   *)

let test_quiescent_soak () =
  let cluster =
    Cluster.create ~nhosts:3 ~health:Health.default_config ~gossip:Gossip.default_config ()
  in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let f = ok (root0.Vnode.create "steady") in
  ok (Vnode.write_all f "settled state");
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  (* Soak at the gossip period: a coarser cron would starve heartbeats
     and manufacture suspicion the health plane must not report. *)
  let period = Gossip.default_config.Gossip.period in
  for _ = 1 to 600 do
    ignore (Cluster.tick_daemons cluster period)
  done;
  Cluster.health_sample_now cluster;
  let m = (Cluster.obs cluster).Obs.metrics in
  Alcotest.(check int) "no events" 0 (List.length (Cluster.health_events cluster));
  Alcotest.(check int) "divergence zero" 0 (Metrics.gauge m "health.divergence_age");
  Alcotest.(check int) "staleness zero" 0 (Metrics.gauge m "health.staleness");
  Alcotest.(check int) "no suspects" 0 (Metrics.gauge m "health.gossip_suspects")

(* ------------------------------------------------------------------ *)
(* SLO classifier semantics                                             *)

let test_confirm_and_edge_trigger () =
  let h = Health.create ~metrics:(Metrics.create ()) { Health.period = 1; slos = [ ("g", Health.slo ~confirm:2 ~degraded:10 ~stuck:100 ()) ] } in
  let obs tick value = Health.observe h ~tick ~gauge:"g" ~value ~span:Span.none ~detail:"" in
  obs 1 50;
  Alcotest.(check int) "one breach below confirm: silent" 0 (Health.events_degraded h);
  obs 2 50;
  Alcotest.(check int) "second consecutive breach fires" 1 (Health.events_degraded h);
  obs 3 60;
  Alcotest.(check int) "still degraded: edge-triggered, no refire" 1 (Health.events_degraded h);
  obs 4 150;
  Alcotest.(check int) "stuck needs its own confirm streak" 0 (Health.events_stuck h);
  obs 5 150;
  Alcotest.(check int) "stuck confirmed" 1 (Health.events_stuck h);
  obs 6 0;
  Alcotest.(check int) "healthy sample recovers" 1 (Health.recoveries h);
  Alcotest.(check bool) "re-armed" true (Health.current_level h "g" = None);
  obs 7 50;
  obs 8 50;
  Alcotest.(check int) "re-escalation fires again" 2 (Health.events_degraded h);
  (* The streak must be consecutive: a dip resets it. *)
  let h2 = Health.create ~metrics:(Metrics.create ()) { Health.period = 1; slos = [ ("g", Health.slo ~confirm:3 ~degraded:10 ~stuck:100 ()) ] } in
  let obs2 tick value = Health.observe h2 ~tick ~gauge:"g" ~value ~span:Span.none ~detail:"" in
  obs2 1 50; obs2 2 50; obs2 3 0; obs2 4 50; obs2 5 50;
  Alcotest.(check int) "dip resets the confirm streak" 0 (Health.events_degraded h2);
  match Health.events h with
  | e :: _ ->
    Alcotest.(check string) "event carries the gauge" "g" e.Health.hv_gauge;
    Alcotest.(check int) "event carries the limit" 10 e.Health.hv_limit
  | [] -> Alcotest.fail "expected events"

let test_slo_validation () =
  Alcotest.check_raises "degraded must be positive" (Invalid_argument "Health.slo")
    (fun () -> ignore (Health.slo ~degraded:0 ~stuck:5 ()));
  Alcotest.check_raises "stuck below degraded rejected" (Invalid_argument "Health.slo")
    (fun () -> ignore (Health.slo ~degraded:10 ~stuck:5 ()));
  Alcotest.check_raises "confirm must be >= 1" (Invalid_argument "Health.slo")
    (fun () -> ignore (Health.slo ~confirm:0 ~degraded:1 ~stuck:2 ()))

(* ------------------------------------------------------------------ *)
(* Tick profiler                                                        *)

let test_profiler_rows () =
  let p = Health.Profile.create () in
  Health.Profile.record p ~daemon:"prop" ~activations:3 ~work:7 ~us:120;
  Health.Profile.record p ~daemon:"prop" ~activations:1 ~work:2 ~us:40;
  Health.Profile.record p ~daemon:"recon" ~activations:1 ~work:1 ~us:900;
  (match Health.Profile.top p with
  | Some r ->
    Alcotest.(check string) "top talker by self-time" "recon" r.Health.Profile.pr_daemon;
    Alcotest.(check int) "self time summed" 900 r.Health.Profile.pr_us
  | None -> Alcotest.fail "expected a top row");
  (match Health.Profile.rows p with
  | [ a; b ] ->
    Alcotest.(check string) "order" "recon" a.Health.Profile.pr_daemon;
    Alcotest.(check string) "order" "prop" b.Health.Profile.pr_daemon;
    Alcotest.(check int) "phase ticks" 2 b.Health.Profile.pr_ticks;
    Alcotest.(check int) "activations" 4 b.Health.Profile.pr_activations;
    Alcotest.(check int) "work" 9 b.Health.Profile.pr_work
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  Alcotest.(check bool) "histogram buckets recorded" true
    (List.length (Health.Profile.us_histogram p "prop") >= 1)

let test_cluster_profiler_populates () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let f = ok (root0.Vnode.create "busy") in
  for i = 1 to 5 do
    ok (Vnode.write_all f (Printf.sprintf "rev %d" i));
    ignore (Cluster.tick_daemons cluster 25)
  done;
  let rows = Health.Profile.rows (Cluster.profile cluster) in
  let daemons = List.map (fun r -> r.Health.Profile.pr_daemon) rows in
  List.iter
    (fun d ->
      Alcotest.(check bool) (d ^ " profiled") true (List.mem d daemons))
    [ "prop"; "recon"; "gossip"; "raft"; "journal" ];
  let prop_row = List.find (fun r -> r.Health.Profile.pr_daemon = "prop") rows in
  Alcotest.(check bool) "propagation did work" true (prop_row.Health.Profile.pr_work >= 1)

let suite =
  List.map QCheck_alcotest.to_alcotest divergence_props
  @ [
      case "quiescent soak: zero events, zero gauges" test_quiescent_soak;
      case "slo: confirm hold and edge-triggered events" test_confirm_and_edge_trigger;
      case "slo: constructor validation" test_slo_validation;
      case "profiler: rows, top talker, histogram" test_profiler_rows;
      case "profiler: cluster ticks populate all daemons" test_cluster_profiler_populates;
    ]
