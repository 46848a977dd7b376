(* The SCALE machinery: equivalence of the simulator's indexed hot
   paths against the legacy linear scans (qcheck, random schedules), the
   Zipf sampler's distribution (chi-squared), and trace-replay
   determinism.  These are the safety net under the benchmark: the
   indexed structures are pure optimizations only as long as no random
   schedule can tell them apart. *)

open Util

let prop name ?(count = 100) arb f = QCheck.Test.make ~name ~count arb f

(* ------------------------------------------------------------------ *)
(* Sim_net: the delivery-tick event queue == the flat-list pump         *)

type Sim_net.payload += Msg of int

(* A random network schedule: sends between random host pairs,
   clock advances, pumps — under latency/duplication/reordering faults
   so the delivery-scheduling machinery actually engages. *)
type net_step = Send of int * int * int | Advance of int | Pump

let net_step_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun s d tag -> Send (s, d, tag)) (int_bound 4) (int_bound 4) (int_bound 99));
        (2, map (fun n -> Advance (n + 1)) (int_bound 4));
        (3, return Pump);
      ])

let print_net_step = function
  | Send (s, d, tag) -> Printf.sprintf "send %d->%d #%d" s d tag
  | Advance n -> Printf.sprintf "advance %d" n
  | Pump -> "pump"

let net_schedule_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_net_step l))
    QCheck.Gen.(list_size (int_bound 40) net_step_gen)

(* Run one schedule and return the full observable trace: every
   delivery (receiver, src, tag, tick) in order, plus each pump's
   return value and the final pending count. *)
let run_net_schedule ~indexed schedule =
  let clock = Clock.create () in
  let faults =
    { Sim_net.no_faults with latency_min = 0; latency_max = 3;
      duplication_prob = 0.2; reorder_prob = 0.2; loss = 0.1 }
  in
  let net = Sim_net.create ~seed:42 ~faults ~indexed clock in
  let hosts = Array.init 5 (fun i -> Sim_net.add_host net (Printf.sprintf "h%d" i)) in
  let log = ref [] in
  Array.iteri
    (fun i h ->
      Sim_net.register_handler net h (fun ~src payload ->
          match payload with
          | Msg tag -> log := (i, src, tag, Clock.now clock) :: !log
          | _ -> ()))
    hosts;
  List.iter
    (fun step ->
      match step with
      | Send (s, d, tag) ->
        Sim_net.send net ~src:hosts.(s) ~dst:hosts.(d) (Msg tag)
      | Advance n -> Clock.advance clock n
      | Pump -> log := (-1, Sim_net.pump net, -1, -1) :: !log)
    schedule;
  (* Drain whatever is still scheduled so the comparison covers the
     in-flight queue too. *)
  for _ = 1 to 8 do
    Clock.advance clock 1;
    ignore (Sim_net.pump net)
  done;
  (List.rev !log, Sim_net.pending net)

let net_props =
  [
    prop "indexed pump == linear pump on random schedules" ~count:200
      net_schedule_arb (fun schedule ->
        run_net_schedule ~indexed:true schedule
        = run_net_schedule ~indexed:false schedule);
  ]

(* ------------------------------------------------------------------ *)
(* Cluster: the ready-queue tick_daemons == the linear scan             *)

(* A random cluster schedule: writes at random hosts, clock ticks of
   random sizes (some long enough to cross reconcile/gossip periods),
   and partition/heal events. *)
type cl_step =
  | Write of int * int * int  (* host, file index, payload tag *)
  | Tick of int
  | Split
  | Heal

let cl_step_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun h f tag -> Write (h, f, tag)) (int_bound 3) (int_bound 3) (int_bound 99));
        (4, map (fun n -> Tick (1 + (7 * n))) (int_bound 8));
        (1, return Split);
        (2, return Heal);
      ])

let print_cl_step = function
  | Write (h, f, tag) -> Printf.sprintf "w h%d f%d #%d" h f tag
  | Tick n -> Printf.sprintf "tick %d" n
  | Split -> "split"
  | Heal -> "heal"

let cl_schedule_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_cl_step l))
    QCheck.Gen.(list_size (int_bound 25) cl_step_gen)

(* Dump a replica's live namespace with version vectors — the state the
   two modes must agree on exactly. *)
let dump phys =
  let rec walk prefix path acc =
    match Physical.fetch_dir phys path with
    | Error _ -> acc
    | Ok fdir ->
      List.fold_left
        (fun acc (name, e) ->
          let child = path @ [ e.Fdir.fid ] in
          let vv =
            match Physical.get_version phys child with
            | Ok vi -> Version_vector.to_string vi.Physical.vi_vv
            | Error _ -> "?"
          in
          let line = Printf.sprintf "%s%s vv=%s" prefix name vv in
          match e.Fdir.kind with
          | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
            walk (prefix ^ name ^ "/") child (line :: acc)
          | Aux_attrs.Freg -> line :: acc)
        acc (Fdir.live fdir)
  in
  List.sort compare (walk "" [] [])

let run_cl_schedule ?control ?journal_blocks ~indexed schedule =
  let cluster =
    Cluster.create ~seed:7 ~nhosts:4 ~propagation_delay:20 ~reconcile_period:30
      ~gossip:Gossip.default_config ?control ?journal_blocks ~indexed ()
  in
  match Cluster.create_volume cluster ~on:[ 0; 1; 2; 3 ] with
  | Error _ -> None
  | Ok vref ->
    let roots =
      List.filter_map
        (fun i -> Result.to_option (Cluster.logical_root cluster i vref))
        [ 0; 1; 2; 3 ]
    in
    if List.length roots <> 4 then None
    else begin
      let pulls = ref 0 and recon_errors = ref 0 in
      let tick n =
        let p, stats = Cluster.tick_daemons cluster n in
        pulls := !pulls + p;
        recon_errors := !recon_errors + stats.Reconcile.errors
      in
      List.iter
        (fun step ->
          match step with
          | Write (h, f, tag) ->
            let root = List.nth roots h in
            let name = Printf.sprintf "f%d" f in
            let file =
              match root.Vnode.lookup name with
              | Ok v -> Some v
              | Error Errno.ENOENT -> Result.to_option (root.Vnode.create name)
              | Error _ -> None
            in
            (match file with
             | Some v -> ignore (Vnode.write_all v (Printf.sprintf "h%d:%d" h tag))
             | None -> ())
          | Tick n -> tick n
          | Split -> Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3 ] ]
          | Heal -> Cluster.heal cluster)
        schedule;
      (* Heal and settle so the final state is partition-independent
         enough to compare deeply (both modes see the same schedule, so
         even transient states must match — the settle just makes the
         dumps meaningful). *)
      Cluster.heal cluster;
      for _ = 1 to 12 do
        tick 30
      done;
      let dumps =
        List.filter_map
          (fun i ->
            Option.map dump (Cluster.replica (Cluster.host cluster i) vref))
          [ 0; 1; 2; 3 ]
      in
      let metrics = (Cluster.metrics_snapshot cluster).Cluster.ms_metrics in
      Some (dumps, metrics, !pulls, !recon_errors, Clock.now (Cluster.clock cluster))
    end

(* Both modes must agree on replica state and on every counter, gauge
   and histogram in the metrics registry.  The raft input adds the tick
   body's raft and journal "is it due" tests to the comparison. *)
let equivalent ?control ?journal_blocks schedule =
  match
    ( run_cl_schedule ?control ?journal_blocks ~indexed:true schedule,
      run_cl_schedule ?control ?journal_blocks ~indexed:false schedule )
  with
  | Some a, Some b -> a = b
  | _ -> false

let cluster_props =
  [
    prop "indexed tick_daemons == linear scan on random schedules" ~count:30
      cl_schedule_arb (fun schedule -> equivalent schedule);
    prop "indexed tick_daemons == linear scan with raft control and a journal"
      ~count:30 cl_schedule_arb (fun schedule ->
        equivalent ~control:(`Raft [ 0; 1; 2 ]) ~journal_blocks:32 schedule);
  ]

(* ------------------------------------------------------------------ *)
(* Zipf sampler: chi-squared goodness of fit                            *)

(* Draw many samples and compare the observed rank counts against the
   exact Zipf(s) expectation.  With n=8 ranks (7 degrees of freedom)
   the 99.9% chi-squared critical value is 24.32; a correct sampler
   fails this about once per thousand seeds, and the seed is fixed. *)
let chi_squared ~n ~s ~samples ~seed =
  let rng = Random.State.make [| seed |] in
  let pick = Workload.zipf_sampler ~n ~s rng in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let r = pick () in
    counts.(r) <- counts.(r) + 1
  done;
  let weight i = 1.0 /. (float_of_int (i + 1) ** s) in
  let total = Array.init n weight |> Array.fold_left ( +. ) 0.0 in
  let chi2 = ref 0.0 in
  for i = 0 to n - 1 do
    let expected = float_of_int samples *. weight i /. total in
    let d = float_of_int counts.(i) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  !chi2

let test_zipf_chi_squared () =
  List.iter
    (fun s ->
      let chi2 = chi_squared ~n:8 ~s ~samples:20_000 ~seed:1234 in
      if chi2 > 24.32 then
        Alcotest.failf "zipf(s=%.1f) chi2 = %.2f exceeds the 99.9%% critical value"
          s chi2)
    [ 0.0; 0.8; 1.1; 2.0 ]

let test_zipf_skew_orders_ranks () =
  (* Sanity on the shape, not just the fit: with real skew, rank 0 must
     be drawn more often than rank n-1 by about the analytic ratio. *)
  let rng = Random.State.make [| 99 |] in
  let n = 16 in
  let pick = Workload.zipf_sampler ~n ~s:1.1 rng in
  let counts = Array.make n 0 in
  for _ = 1 to 50_000 do
    let r = pick () in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates the tail" true
    (counts.(0) > 10 * counts.(n - 1))

(* ------------------------------------------------------------------ *)
(* Trace generation and replay determinism                              *)

let test_trace_deterministic () =
  let cfg = Workload.default_trace in
  let take k =
    let rec go acc n seq =
      if n = 0 then List.rev acc
      else
        match seq () with
        | Seq.Nil -> List.rev acc
        | Seq.Cons (op, rest) -> go (op :: acc) (n - 1) rest
    in
    go [] k (Workload.trace cfg)
  in
  let a = take 5_000 and b = take 5_000 in
  Alcotest.(check bool) "two streams from one seed are identical" true (a = b);
  let c = take 5_000
  and d =
    let rec go acc n seq =
      if n = 0 then List.rev acc
      else
        match seq () with
        | Seq.Nil -> List.rev acc
        | Seq.Cons (op, rest) -> go (op :: acc) (n - 1) rest
    in
    go [] 5_000 (Workload.trace { cfg with Workload.t_seed = cfg.Workload.t_seed + 1 })
  in
  Alcotest.(check bool) "a different seed diverges" true (c <> d)

let test_replay_deterministic () =
  (* Replay the same trace twice over fresh single-host stacks: op
     counts and the final namespace must match bit-for-bit. *)
  let run () =
    let _, fs = fresh_ufs ~blocks:8192 () in
    let root = Ufs_vnode.root fs in
    let cfg =
      { Workload.default_trace with Workload.t_users = 4; t_files = 8 }
    in
    (match Workload.setup_trace root cfg with
     | Ok () -> ()
     | Error e -> Alcotest.failf "setup: %s" (Errno.to_string e));
    let stats = Workload.replay ~root_for:(fun _ -> root) cfg ~ops:2_000 in
    let dump = ref [] in
    (match root.Vnode.readdir () with
     | Error _ -> ()
     | Ok entries ->
       List.iter
         (fun e ->
           match root.Vnode.lookup e.Vnode.entry_name with
           | Error _ -> ()
           | Ok dv ->
             (match dv.Vnode.readdir () with
              | Error _ -> ()
              | Ok files ->
                List.iter
                  (fun f ->
                    let size =
                      match dv.Vnode.lookup f.Vnode.entry_name with
                      | Ok fv ->
                        (match fv.Vnode.getattr () with
                         | Ok at -> at.Vnode.size
                         | Error _ -> -1)
                      | Error _ -> -1
                    in
                    dump :=
                      (e.Vnode.entry_name ^ "/" ^ f.Vnode.entry_name, size)
                      :: !dump)
                  files))
         entries);
    (stats, List.sort compare !dump)
  in
  let s1, d1 = run () and s2, d2 = run () in
  Alcotest.(check bool) "identical stats" true (s1 = s2);
  Alcotest.(check bool) "identical namespace" true (d1 = d2);
  Alcotest.(check int) "no op errors" 0 s1.Workload.tr_errors;
  Alcotest.(check bool) "every kind exercised" true
    (s1.Workload.tr_reads > 0 && s1.Workload.tr_writes > 0
   && s1.Workload.tr_renames > 0 && s1.Workload.tr_mkdirs > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest (net_props @ cluster_props)
  @ [
      Alcotest.test_case "zipf sampler passes chi-squared" `Quick
        test_zipf_chi_squared;
      Alcotest.test_case "zipf skew orders ranks" `Quick
        test_zipf_skew_orders_ranks;
      Alcotest.test_case "trace stream is seed-deterministic" `Quick
        test_trace_deterministic;
      Alcotest.test_case "trace replay is deterministic" `Quick
        test_replay_deterministic;
    ]
