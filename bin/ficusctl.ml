(* ficusctl: drive the Ficus simulation from the command line.

     ficusctl demo                          guided tour of the stack
     ficusctl experiment e4 e6 ...          run reproduction experiments
     ficusctl availability -n 5 -g 3        availability table
     ficusctl simulate --hosts 3 --epochs 20 --partition-prob 0.4
                                            partitioned workload + report *)

open Cmdliner

let get = function
  | Ok v -> v
  | Error e -> failwith ("ficusctl: " ^ Errno.to_string e)

(* ------------------------------------------------------------------ *)

let demo () =
  let cluster = Cluster.create ~nhosts:3 () in
  let vref = get (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  Printf.printf "three hosts, volume %s replicated on all of them\n"
    (Fmt.str "%a" Ids.pp_vref vref);
  let root0 = get (Cluster.logical_root cluster 0 vref) in
  let f = get (root0.Vnode.create "demo.txt") in
  get (Vnode.write_all f "written on host0");
  let (_ : int) = Cluster.run_propagation cluster in
  Printf.printf "wrote demo.txt on host0; propagated to the other replicas\n";
  Cluster.partition cluster [ [ 0 ]; [ 1; 2 ] ];
  Printf.printf "partition: {host0} | {host1,host2}\n";
  let root1 = get (Cluster.logical_root cluster 1 vref) in
  get (Vnode.write_all (get (root0.Vnode.lookup "demo.txt")) "edited on host0, offline");
  get (Vnode.write_all (get (root1.Vnode.lookup "demo.txt")) "edited on host1, offline");
  Printf.printf "both sides updated demo.txt under one-copy availability\n";
  Cluster.heal cluster;
  let rounds = get (Cluster.converge cluster vref ~max_rounds:20 ()) in
  Printf.printf "healed; reconciliation converged in %d round(s)\n" rounds;
  List.iter
    (fun i ->
      match Cluster.replica (Cluster.host cluster i) vref with
      | None -> ()
      | Some phys ->
        List.iter
          (fun e -> Printf.printf "host%d conflict: %s\n" i (Fmt.str "%a" Conflict_log.pp_entry e))
          (Conflict_log.pending (Physical.conflicts phys)))
    [ 0; 1; 2 ];
  Printf.printf "conflicting updates were detected and reported, not lost.\n";
  0

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Guided tour: replicate, partition, diverge, reconcile")
    Term.(const demo $ const ())

(* ------------------------------------------------------------------ *)

let experiment names =
  let names = if names = [] then Experiments.names else names in
  let verdicts =
    List.map
      (fun name ->
        match Experiments.run_by_name name with
        | Some v -> v
        | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat ", " Experiments.names);
          exit 2)
      names
  in
  if List.for_all (fun v -> v.Experiments.holds) verdicts then 0 else 1

let experiment_cmd =
  let names = Arg.(value & pos_all string [] & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run reproduction experiments (default: all)")
    Term.(const experiment $ names)

(* ------------------------------------------------------------------ *)

let availability nreplicas groups p trials =
  let model =
    match p with
    | Some p -> Availability.Independent p
    | None -> Availability.Partition_groups groups
  in
  let policies =
    [
      Replica_control.One_copy;
      Replica_control.Primary_copy;
      Replica_control.Majority_voting;
      Replica_control.default_weighted ~nreplicas;
      Replica_control.Quorum_consensus
        { read_quorum = (nreplicas / 2) + 1; write_quorum = (nreplicas / 2) + 1 };
    ]
  in
  let rows =
    List.map
      (fun policy ->
        let r = Availability.evaluate ~trials ~nreplicas ~model policy in
        [
          Replica_control.name policy;
          Table.fmt_pct r.Availability.read_availability;
          Table.fmt_pct r.Availability.update_availability;
        ])
      policies
  in
  let model_name =
    match p with
    | Some p -> Printf.sprintf "independent reachability p=%.2f" p
    | None -> Printf.sprintf "uniform %d-way partitions" groups
  in
  Table.print
    ~title:(Printf.sprintf "availability: %d replicas, %s, %d trials" nreplicas model_name trials)
    ~headers:[ "policy"; "read"; "update" ]
    rows;
  0

let availability_cmd =
  let n = Arg.(value & opt int 3 & info [ "n"; "replicas" ] ~docv:"N" ~doc:"Replica count") in
  let g = Arg.(value & opt int 3 & info [ "g"; "groups" ] ~docv:"K" ~doc:"Partition groups") in
  let p =
    Arg.(value & opt (some float) None
         & info [ "p" ] ~docv:"P" ~doc:"Independent reachability probability (overrides -g)")
  in
  let trials = Arg.(value & opt int 50_000 & info [ "trials" ] ~docv:"T" ~doc:"Trials") in
  Cmd.v
    (Cmd.info "availability" ~doc:"Compare replica-control policies under failures")
    Term.(const availability $ n $ g $ p $ trials)

(* ------------------------------------------------------------------ *)

let simulate hosts epochs partition_prob write_fraction seed =
  let cluster = Cluster.create ~nhosts:hosts ~seed () in
  let all_hosts = List.init hosts Fun.id in
  let vref = get (Cluster.create_volume cluster ~on:all_hosts) in
  let roots = List.map (fun i -> get (Cluster.logical_root cluster i vref)) all_hosts in
  let cfg = { Workload.default with write_fraction; seed } in
  get (Workload.setup (List.hd roots) cfg);
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = get (Cluster.converge cluster vref ()) in
  let rng = Random.State.make [| seed |] in
  let total = ref { Workload.reads = 0; writes = 0; errors = 0 } in
  for _ = 1 to epochs do
    if Random.State.float rng 1.0 < partition_prob then
      Cluster.partition cluster (List.map (fun i -> [ i ]) all_hosts)
    else Cluster.heal cluster;
    List.iter
      (fun root ->
        let s = Workload.run root { cfg with seed = Random.State.int rng 100000 } ~ops:20 in
        total :=
          {
            Workload.reads = !total.Workload.reads + s.Workload.reads;
            writes = !total.Workload.writes + s.Workload.writes;
            errors = !total.Workload.errors + s.Workload.errors;
          })
      roots;
    Cluster.heal cluster;
    let (_ : int) = Cluster.run_propagation cluster in
    (match Cluster.converge cluster vref ~max_rounds:20 () with Ok _ | Error _ -> ())
  done;
  let conflicts =
    List.fold_left
      (fun acc i ->
        match Cluster.replica (Cluster.host cluster i) vref with
        | Some phys -> acc + List.length (Conflict_log.all (Physical.conflicts phys))
        | None -> acc)
      0 all_hosts
  in
  Table.print ~title:"simulation report"
    ~headers:[ "metric"; "value" ]
    [
      [ "hosts"; string_of_int hosts ];
      [ "epochs"; string_of_int epochs ];
      [ "reads"; string_of_int !total.Workload.reads ];
      [ "writes"; string_of_int !total.Workload.writes ];
      [ "op errors"; string_of_int !total.Workload.errors ];
      [ "conflicts detected"; string_of_int conflicts ];
      [ "conflict rate";
        (if !total.Workload.writes = 0 then "n/a"
         else Table.fmt_pct (float_of_int conflicts /. float_of_int !total.Workload.writes)) ];
    ];
  0

let simulate_cmd =
  let hosts = Arg.(value & opt int 3 & info [ "hosts" ] ~docv:"N" ~doc:"Host count") in
  let epochs = Arg.(value & opt int 20 & info [ "epochs" ] ~docv:"E" ~doc:"Workload epochs") in
  let pp =
    Arg.(value & opt float 0.3
         & info [ "partition-prob" ] ~docv:"P" ~doc:"Probability an epoch is partitioned")
  in
  let wf =
    Arg.(value & opt float 0.2 & info [ "write-fraction" ] ~docv:"W" ~doc:"Fraction of writes")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a partitioned workload and report conflict statistics")
    Term.(const simulate $ hosts $ epochs $ pp $ wf $ seed)

(* ------------------------------------------------------------------ *)

(* `ficusctl stats`: generate some cross-host activity, then fetch the
   `.#ficus#stats` ctl name through the interposed NFS stack — host1
   holds no replica, so the fetch itself crosses the wire — and
   pretty-print the line-oriented snapshot body. *)

let stats () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = get (Cluster.create_volume cluster ~on:[ 0 ]) in
  let root0 = get (Cluster.logical_root cluster 0 vref) in
  let f = get (root0.Vnode.create "stats-demo.txt") in
  get (Vnode.write_all f "written locally on host0");
  let root1 = get (Cluster.logical_root cluster 1 vref) in
  get (Vnode.write_all (get (root1.Vnode.lookup "stats-demo.txt")) "written across NFS");
  let (_ : int) = Cluster.run_propagation cluster in
  let body = get (Remote.stats ~obs:(Cluster.obs cluster) root1) in
  let lines = String.split_on_char '\n' body |> List.filter (fun l -> l <> "") in
  let counters = ref [] and gauges = ref [] and hists = ref [] and spans = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "counter"; name; v ] -> counters := [ name; v ] :: !counters
      | [ "gauge"; name; v ] -> gauges := [ name; v ] :: !gauges
      | "hist" :: name :: rest -> hists := [ name; String.concat " " rest ] :: !hists
      | "span" :: _ -> spans := line :: !spans
      | _ -> ())
    lines;
  Table.print
    ~title:"`.#ficus#stats` counters (fetched across NFS from host1)"
    ~headers:[ "counter"; "value" ]
    (List.rev !counters);
  if !gauges <> [] then
    Table.print ~title:"gauges" ~headers:[ "gauge"; "value" ] (List.rev !gauges);
  if !hists <> [] then
    Table.print ~title:"histograms" ~headers:[ "histogram"; "summary" ] (List.rev !hists);
  let spans = List.rev !spans in
  let nspans = List.length spans in
  let tail = 8 in
  Printf.printf "\n%d span timeline event(s)%s:\n" nspans
    (if nspans > tail then Printf.sprintf "; last %d" tail else "");
  List.iteri (fun i l -> if i >= nspans - tail then Printf.printf "  %s\n" l) spans;
  0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Fetch `.#ficus#stats` through the NFS stack and pretty-print it")
    Term.(const stats $ const ())

(* ------------------------------------------------------------------ *)

(* `ficusctl trace`: run a replicated workload with a retention-capped
   span store and the streaming Chrome trace-event exporter attached,
   so evicted spans land in the JSONL instead of vanishing. *)

let trace out ops cap =
  let cluster = Cluster.create ~nhosts:3 () in
  let spans = (Cluster.obs cluster).Obs.spans in
  Span.set_retention spans cap;
  let exporter = Trace_export.create out in
  Trace_export.attach exporter spans;
  let vref = get (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let roots = List.init 3 (fun i -> get (Cluster.logical_root cluster i vref)) in
  let cfg = { Workload.default with seed = 7 } in
  get (Workload.setup (List.hd roots) cfg);
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = get (Cluster.converge cluster vref ()) in
  let errors = ref 0 in
  List.iteri
    (fun i root ->
      let s = Workload.run root { cfg with seed = 100 + i } ~ops in
      errors := !errors + s.Workload.errors;
      let (_ : int * Reconcile.stats) = Cluster.tick_daemons cluster 50 in
      ())
    roots;
  let (_ : int) = Cluster.run_propagation cluster in
  (match Cluster.converge cluster vref ~max_rounds:50 () with Ok _ | Error _ -> ());
  let streamed = Trace_export.exported exporter in
  let drained = Trace_export.drain exporter spans in
  Trace_export.close exporter;
  Table.print ~title:"trace export"
    ~headers:[ "metric"; "value" ]
    [
      [ "ops per host"; string_of_int ops ];
      [ "op errors"; string_of_int !errors ];
      [ "spans minted"; string_of_int (Span.minted spans) ];
      [ "retention cap"; string_of_int cap ];
      [ "spans live at end"; string_of_int (Span.live spans) ];
      [ "spans streamed on eviction"; string_of_int streamed ];
      [ "spans drained at end"; string_of_int drained ];
      [ "JSONL lines"; string_of_int (Trace_export.lines exporter) ];
    ];
  Printf.printf "\nwrote %s (Chrome trace-event JSONL; load in Perfetto, 1 tick = 1us)\n"
    (Trace_export.path exporter);
  if Trace_export.exported exporter = Span.minted spans then 0
  else begin
    Printf.eprintf "trace incomplete: %d exported of %d minted\n"
      (Trace_export.exported exporter) (Span.minted spans);
    1
  end

let trace_cmd =
  let out =
    Arg.(value & opt string "ficus_trace.jsonl"
         & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output JSONL path")
  in
  let ops = Arg.(value & opt int 300 & info [ "ops" ] ~docv:"N" ~doc:"Operations per host") in
  let cap =
    Arg.(value & opt int 256 & info [ "cap" ] ~docv:"N" ~doc:"Span-store retention cap")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Export a workload's span timelines as Chrome trace-event JSONL")
    Term.(const trace $ out $ ops $ cap)

(* ------------------------------------------------------------------ *)

(* `ficusctl top`: run a partitioned workload on a health-enabled
   cluster and show where the simulator's cycles went (the per-daemon
   tick profiler) next to the watchdog's gauges and any events. *)

let top hosts epochs seed =
  let cluster = Cluster.create ~health:Health.default_config ~nhosts:hosts ~seed () in
  let all_hosts = List.init hosts Fun.id in
  let vref = get (Cluster.create_volume cluster ~on:all_hosts) in
  let roots = List.map (fun i -> get (Cluster.logical_root cluster i vref)) all_hosts in
  let cfg = { Workload.default with seed } in
  get (Workload.setup (List.hd roots) cfg);
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = get (Cluster.converge cluster vref ()) in
  let rng = Random.State.make [| seed |] in
  for epoch = 1 to epochs do
    (* A third of the epochs run minority-partitioned so the watchdog
       has something to watch. *)
    if epoch mod 3 = 0 && hosts > 1 then
      Cluster.partition cluster [ [ 0 ]; List.tl all_hosts ]
    else Cluster.heal cluster;
    List.iter
      (fun root ->
        let (_ : Workload.stats) =
          Workload.run root { cfg with seed = Random.State.int rng 100000 } ~ops:20
        in
        ())
      roots;
    let (_ : int * Reconcile.stats) = Cluster.tick_daemons cluster 25 in
    ()
  done;
  Cluster.heal cluster;
  let (_ : int) = Cluster.run_propagation cluster in
  (match Cluster.converge cluster vref ~max_rounds:50 () with Ok _ | Error _ -> ());
  Cluster.health_sample_now cluster;
  let profile = Cluster.profile cluster in
  Table.print ~title:"per-daemon tick profile (top talkers first)"
    ~headers:[ "daemon"; "phase ticks"; "activations"; "work"; "self us" ]
    (List.map
       (fun r ->
         [
           r.Health.Profile.pr_daemon;
           string_of_int r.Health.Profile.pr_ticks;
           string_of_int r.Health.Profile.pr_activations;
           string_of_int r.Health.Profile.pr_work;
           string_of_int r.Health.Profile.pr_us;
         ])
       (Health.Profile.rows profile));
  let snap = (Cluster.metrics_snapshot cluster).Cluster.ms_metrics in
  let health_gauges =
    List.filter (fun (k, _) -> String.length k >= 7 && String.sub k 0 7 = "health.")
      snap.Metrics.snap_gauges
  in
  if health_gauges <> [] then
    Table.print ~title:"health gauges (final sample)"
      ~headers:[ "gauge"; "value" ]
      (List.map (fun (k, v) -> [ k; string_of_int v ]) health_gauges);
  (* Unresolved conflicts keep replicas mutually undominated, so a
     nonzero final divergence age with conflicts pending is the gauge
     being honest, not the cluster failing to converge. *)
  let conflicts =
    List.fold_left
      (fun acc i ->
        match Cluster.replica (Cluster.host cluster i) vref with
        | Some phys -> acc + List.length (Conflict_log.pending (Physical.conflicts phys))
        | None -> acc)
      0 all_hosts
  in
  Printf.printf "\n%d unresolved conflict(s) pending\n" conflicts;
  let events = Cluster.health_events cluster in
  Printf.printf "%d health event(s)\n" (List.length events);
  List.iter (fun e -> Printf.printf "  %s\n" (Fmt.str "%a" Health.pp_event e)) events;
  0

let top_cmd =
  let hosts = Arg.(value & opt int 3 & info [ "hosts" ] ~docv:"N" ~doc:"Host count") in
  let epochs = Arg.(value & opt int 12 & info [ "epochs" ] ~docv:"E" ~doc:"Workload epochs") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed") in
  Cmd.v
    (Cmd.info "top" ~doc:"Profile daemon self-time and show health-plane gauges and events")
    Term.(const top $ hosts $ epochs $ seed)

(* ------------------------------------------------------------------ *)

(* `ficusctl conflicts` / `ficusctl resolve`: the owner-facing side of
   the CRDT directory-merge subsystem.  Both commands drive the same
   deterministic scenario — a 2-host `Crdt-mode cluster in Owner_report
   mode, partitioned so both sides edit one file and cross-rename two
   directories into each other — so `conflicts` shows what the repair
   left for the owner, and `resolve <fid> <winner>` picks a winner for
   one register and reconverges the cluster. *)

let conflict_scenario () =
  let cluster =
    Cluster.create ~nhosts:2 ~dir_merge:`Crdt ~resolver:Resolver.Owner_report ()
  in
  let vref = get (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = get (Cluster.logical_root cluster 0 vref) in
  ignore (get (root0.Vnode.mkdir "a"));
  ignore (get (root0.Vnode.mkdir "b"));
  let f = get (root0.Vnode.create "report.txt") in
  get (Vnode.write_all f "base revision");
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = get (Cluster.converge cluster vref ()) in
  let root1 = get (Cluster.logical_root cluster 1 vref) in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  get (Vnode.write_all (get (root0.Vnode.lookup "report.txt")) "edited on host0, offline");
  get (Vnode.write_all (get (root1.Vnode.lookup "report.txt")) "edited on host1, offline");
  get (root0.Vnode.rename "a" (get (root0.Vnode.lookup "b")) "x");
  get (root1.Vnode.rename "b" (get (root1.Vnode.lookup "a")) "y");
  Cluster.heal cluster;
  (match Cluster.converge cluster vref ~max_rounds:60 () with Ok _ | Error _ -> ());
  (cluster, vref)

let preview s =
  let s = String.map (fun c -> if c = '\n' then ' ' else c) s in
  if String.length s <= 24 then s else String.sub s 0 21 ^ "..."

let print_conflicts cluster vref =
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let pending = Crdt_merge.pending_registers phys0 in
  let rows =
    List.concat_map
      (fun p ->
        List.mapi
          (fun i (v : Mv_register.version) ->
            [
              Ids.fid_to_hex p.Crdt_merge.p_fid;
              string_of_int p.Crdt_merge.p_span;
              (if i = 0 then "winner" else Printf.sprintf "rival %d" i);
              Fmt.str "%a" Version_vector.pp v.Mv_register.mv_vv;
              preview v.Mv_register.mv_data;
            ])
          (Mv_register.versions p.Crdt_merge.p_register))
      pending
  in
  if rows = [] then Printf.printf "no pending file conflicts\n"
  else
    Table.print
      ~title:"pending file conflicts on host0 (multi-value registers, LWW order)"
      ~headers:[ "fid"; "span"; "rank"; "version vector"; "contents" ]
      rows;
  (* The conflict orphanage: subtrees the tree repair re-parented after
     losing every live path. *)
  (match Physical.fetch_dir phys0 [] with
   | Error _ -> ()
   | Ok root_fdir ->
     (match Fdir.find_live root_fdir Physical.lost_found_name with
      | None -> Printf.printf "lost+found is empty\n"
      | Some lf ->
        (match Physical.fetch_dir phys0 [ lf.Fdir.fid ] with
         | Error _ -> ()
         | Ok lf_fdir ->
           Table.print ~title:"lost+found (re-parented by the CRDT tree repair)"
             ~headers:[ "name"; "fid"; "kind" ]
             (List.map
                (fun (name, (e : Fdir.entry)) ->
                  [
                    name;
                    Ids.fid_to_hex e.Fdir.fid;
                    (match e.Fdir.kind with
                     | Aux_attrs.Freg -> "file"
                     | Aux_attrs.Fdir -> "dir"
                     | Aux_attrs.Fgraft -> "graft");
                  ])
                (Fdir.live lf_fdir)))));
  pending

let conflicts () =
  let cluster, vref = conflict_scenario () in
  let pending = print_conflicts cluster vref in
  if pending <> [] then
    Printf.printf
      "\nresolve one with: ficusctl resolve <fid> <local|remote|merged>\n";
  0

let conflicts_cmd =
  Cmd.v
    (Cmd.info "conflicts"
       ~doc:"List pending file-conflict registers and the lost+found orphanage")
    Term.(const conflicts $ const ())

let resolve fid_hex winner =
  let keep =
    match String.lowercase_ascii winner with
    | "local" -> `Local
    | "remote" -> `Remote
    | "merged" -> `Merged "merged by the owner: both offline edits kept"
    | w ->
      Printf.eprintf "unknown winner %S (expected local, remote or merged)\n" w;
      exit 2
  in
  let cluster, vref = conflict_scenario () in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let matching =
    List.filter
      (fun (e : Conflict_log.entry) -> Ids.fid_to_hex e.Conflict_log.fid = fid_hex)
      (Conflict_log.pending (Physical.conflicts phys0))
  in
  match matching with
  | [] ->
    Printf.eprintf "no pending conflict for fid %s on host0; run `ficusctl conflicts`\n"
      fid_hex;
    let (_ : Crdt_merge.pending list) = print_conflicts cluster vref in
    1
  | entry :: _ ->
    get (Reconcile.resolve_file_conflict ~local:phys0 entry ~keep);
    let (_ : int) = Cluster.run_propagation cluster in
    (match Cluster.converge cluster vref ~max_rounds:40 () with Ok _ | Error _ -> ());
    let remaining i =
      let p = Option.get (Cluster.replica (Cluster.host cluster i) vref) in
      List.length (Crdt_merge.pending_registers p)
    in
    let digest i =
      get (Crdt_merge.digest (Option.get (Cluster.replica (Cluster.host cluster i) vref)))
    in
    let contents i =
      let root = get (Cluster.logical_root cluster i vref) in
      get (Vnode.read_all (get (root.Vnode.lookup "report.txt")))
    in
    Table.print ~title:(Printf.sprintf "resolved %s keeping %s" fid_hex winner)
      ~headers:[ "check"; "host0"; "host1" ]
      [
        [ "contents"; preview (contents 0); preview (contents 1) ];
        [ "pending registers"; string_of_int (remaining 0); string_of_int (remaining 1) ];
        [ "tree digests equal"; string_of_bool (digest 0 = digest 1); "" ];
      ];
    if remaining 0 = 0 && remaining 1 = 0 && digest 0 = digest 1 then 0 else 1

let resolve_cmd =
  let fid = Arg.(required & pos 0 (some string) None & info [] ~docv:"FID") in
  let winner =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"WINNER")
  in
  Cmd.v
    (Cmd.info "resolve"
       ~doc:"Resolve a pending file conflict by fid, keeping local, remote or merged")
    Term.(const resolve $ fid $ winner)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "drive the Ficus replicated file system simulation" in
  let info = Cmd.info "ficusctl" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            demo_cmd; experiment_cmd; availability_cmd; simulate_cmd; stats_cmd; trace_cmd;
            top_cmd; conflicts_cmd; resolve_cmd;
          ]))
