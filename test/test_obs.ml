(* Observability: the metrics registry's quantile math, causal span
   timelines across hosts (under injected network faults), and the
   `.#ficus#stats` ctl-name export through both a local and an
   NFS-interposed stack. *)

open Util

(* ---------------- histogram quantiles ---------------- *)

let test_hist_known_distribution () =
  let m = Metrics.create () in
  (* 1..100 once each: nearest-rank percentiles are exact. *)
  for v = 1 to 100 do
    Metrics.observe m "lat" v
  done;
  Alcotest.(check (option int)) "p50" (Some 50) (Metrics.percentile m "lat" 50.);
  Alcotest.(check (option int)) "p95" (Some 95) (Metrics.percentile m "lat" 95.);
  Alcotest.(check (option int)) "p99" (Some 99) (Metrics.percentile m "lat" 99.);
  Alcotest.(check (option int)) "p100" (Some 100) (Metrics.percentile m "lat" 100.);
  Alcotest.(check (option (triple int int int)))
    "percentiles triple" (Some (50, 95, 99)) (Metrics.percentiles m "lat");
  Alcotest.(check int) "count" 100 (Metrics.hist_count m "lat");
  Alcotest.(check int) "sum" 5050 (Metrics.hist_sum m "lat")

let test_hist_skewed_distribution () =
  let m = Metrics.create () in
  (* Nine fast observations and one slow outlier: the median must ignore
     the outlier, the tail must see it. *)
  for _ = 1 to 9 do
    Metrics.observe m "lat" 1
  done;
  Metrics.observe m "lat" 100;
  Alcotest.(check (option (triple int int int)))
    "skew percentiles" (Some (1, 100, 100)) (Metrics.percentiles m "lat");
  Alcotest.(check (option int)) "p90 stays low" (Some 1) (Metrics.percentile m "lat" 90.);
  (* Empty histogram: no invented numbers. *)
  Alcotest.(check (option int)) "missing hist" None (Metrics.percentile m "nope" 50.)

let test_snapshot_render () =
  let m = Metrics.create () in
  Metrics.incr m "ops";
  Metrics.add m "ops" 2;
  Metrics.gauge_set m "depth" 7;
  Metrics.observe m "lat" 4;
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "counter in snapshot" 3 (List.assoc "ops" snap.Metrics.snap_counters);
  Alcotest.(check int) "gauge in snapshot" 7 (List.assoc "depth" snap.Metrics.snap_gauges);
  let body = Metrics.render snap in
  let has needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (has "counter ops 3");
  Alcotest.(check bool) "gauge line" true (has "gauge depth 7");
  Alcotest.(check bool) "hist line" true (has "hist lat count=1 sum=4 max=4")

(* ---------------- cross-host span timelines ---------------- *)

let contains_sub body needle =
  let nl = String.length needle and bl = String.length body in
  let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
  go 0

(* [labels] must contain [expected] as a (not necessarily contiguous)
   subsequence — events from other stages may interleave. *)
let rec is_subseq expected labels =
  match (expected, labels) with
  | [], _ -> true
  | _, [] -> false
  | e :: etl, l :: ltl -> if e = l then is_subseq etl ltl else is_subseq expected ltl

let test_span_timeline_cross_host () =
  (* Latency, duplication and reordering injected — the timeline must
     still come out causally ordered because every event carries the
     simulated clock. *)
  let faults =
    {
      Sim_net.no_faults with
      latency_min = 1;
      latency_max = 3;
      duplication_prob = 0.3;
      reorder_prob = 0.3;
    }
  in
  let cluster =
    Cluster.create ~selection:Logical.Prefer_local ~journal_blocks:256 ~nhosts:2 ()
  in
  Cluster.set_faults cluster faults;
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let f = ok (root0.Vnode.create "f") in
  ok (Vnode.write_all f "traced payload");
  (* Drive daemons long enough for delivery (latency), the pull, and the
     age-based journal flush. *)
  for _ = 1 to 30 do
    ignore (Cluster.tick_daemons cluster 1)
  done;
  let snap = Cluster.metrics_snapshot cluster in
  let timelines = snap.Cluster.ms_spans in
  Alcotest.(check bool) "spans recorded" true (List.length timelines >= 2);
  (* Find the write's span by its originating event. *)
  let write_tl =
    match
      List.find_opt
        (fun (_, tl) ->
          match tl with e :: _ -> e.Span.e_label = "update:write" | [] -> false)
        timelines
    with
    | Some (_, tl) -> tl
    | None -> Alcotest.fail "no update:write span"
  in
  let labels = List.map (fun e -> e.Span.e_label) write_tl in
  Alcotest.(check bool)
    (* write at host0 -> version bump -> notify multicast -> cache entry
       at host1 -> pull -> shadow swap -> install: the full pipeline on
       one timeline. *)
    "causal pipeline order" true
    (is_subseq
       [
         "update:write";
         "phys:update";
         "notify:send";
         "nvc:note";
         "prop:pull";
         "shadow:swap";
         "install:prop";
       ]
       labels);
  Alcotest.(check bool) "journal commit attributed" true
    (List.mem "journal:commit" labels);
  (* Ticks are non-decreasing along the timeline. *)
  let sorted = ref true in
  let rec chk = function
    | a :: (b :: _ as tl) ->
      if a.Span.e_tick > b.Span.e_tick then sorted := false;
      chk tl
    | _ -> ()
  in
  chk write_tl;
  Alcotest.(check bool) "ticks monotone" true !sorted;
  (* Origin and installer are on different hosts. *)
  let first = List.hd write_tl in
  let install =
    List.find (fun e -> e.Span.e_label = "install:prop") write_tl
  in
  Alcotest.(check string) "originates at host0" "host0" first.Span.e_host;
  Alcotest.(check string) "installs at host1" "host1" install.Span.e_host;
  (* The same snapshot carries the cluster-wide lag histogram and the
     journal gauges. *)
  let metrics = snap.Cluster.ms_metrics in
  let lag =
    List.find_opt (fun h -> h.Metrics.hs_name = "prop.lag") metrics.Metrics.snap_hists
  in
  (match lag with
   | None -> Alcotest.fail "no prop.lag histogram"
   | Some h ->
     Alcotest.(check bool) "lag observed" true (h.Metrics.hs_count >= 1);
     Alcotest.(check bool) "lag positive" true (h.Metrics.hs_p50 > 0));
  Alcotest.(check bool) "per-replica lag" true
    (List.exists
       (fun h -> h.Metrics.hs_name = "prop.lag.host1")
       metrics.Metrics.snap_hists);
  Alcotest.(check bool) "journal flushes folded in" true
    (List.assoc "journal.flushes" metrics.Metrics.snap_gauges >= 1)

(* ---------------- `.#ficus#stats` export ---------------- *)

let test_stats_ctl_local_and_nfs () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let f = ok (root0.Vnode.create "f") in
  ok (Vnode.write_all f "local bytes");
  (* Local stack: logical layer passes the ctl name straight through to
     the co-resident physical layer. *)
  let body_local = ok (Remote.stats ~obs:(Cluster.obs cluster) root0) in
  Alcotest.(check bool) "local body non-empty" true (String.length body_local > 0);
  Alcotest.(check bool) "local counters present" true
    (contains_sub body_local "counter ");
  Alcotest.(check bool) "local spans present" true (contains_sub body_local "span ");
  (* Remote stack: host1 has no replica, so every operation — including
     the ctl lookup — crosses the interposed NFS client/server pair. *)
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  let f1 = ok (root1.Vnode.lookup "f") in
  ok (Vnode.write_all f1 "written across NFS");
  let body_nfs = ok (Remote.stats ~obs:(Cluster.obs cluster) root1) in
  Alcotest.(check bool) "NFS body non-empty" true (String.length body_nfs > 0);
  Alcotest.(check bool) "NFS counters present" true (contains_sub body_nfs "counter ");
  (* The cross-NFS write's span recorded both sides of the wire. *)
  Alcotest.(check bool) "rpc event traced" true (contains_sub body_nfs "nfs:rpc");
  Alcotest.(check bool) "serve event traced" true (contains_sub body_nfs "nfs:serve");
  Alcotest.(check bool) "stats op counted" true
    (contains_sub body_nfs "phys.ctl.stats")

(* ---------------- retention, eviction status, export hook ---------------- *)

let test_span_status_evicted_vs_unknown () =
  let s = Span.create () in
  Span.set_retention s 2;
  let a = Span.start s ~host:"h" ~tick:1 "first" in
  let b = Span.start s ~host:"h" ~tick:2 "second" in
  let c = Span.start s ~host:"h" ~tick:3 "third" in
  (* Cap 2: minting [c] evicted [a]. *)
  Alcotest.(check int) "one eviction" 1 (Span.evicted s);
  Alcotest.(check int) "two live" 2 (Span.live s);
  Alcotest.(check bool) "oldest evicted" true (Span.status s a = Span.Evicted);
  Alcotest.(check bool) "newer live" true (Span.status s b = Span.Live);
  Alcotest.(check bool) "newest live" true (Span.status s c = Span.Live);
  Alcotest.(check bool) "never minted: unknown" true (Span.status s (c + 1) = Span.Unknown);
  Alcotest.(check bool) "id 0 (none): unknown" true (Span.status s Span.none = Span.Unknown);
  Alcotest.(check bool) "negative: unknown" true (Span.status s (-3) = Span.Unknown);
  (* Lookups on the evicted id degrade quietly rather than lying. *)
  Alcotest.(check bool) "no timeline for evicted" true (Span.timeline s a = []);
  Alcotest.(check bool) "no export for evicted" true (Span.export s a = None);
  Span.event s a ~host:"h" ~tick:9 "late";
  Alcotest.(check int) "event on evicted is a no-op" 1 (Span.evicted s)

let test_export_hook_sees_full_record () =
  let s = Span.create () in
  Span.set_retention s 1;
  let seen = ref [] in
  Span.set_export_hook s (fun x -> seen := x :: !seen);
  let a = Span.start s ~host:"h0" ~tick:5 "victim" in
  Span.event s a ~host:"h1" ~tick:7 "hop";
  let (_ : int) = Span.start s ~host:"h0" ~tick:8 "evictor" in
  (match !seen with
  | [ x ] ->
    Alcotest.(check int) "hook got the evicted span" a x.Span.x_id;
    Alcotest.(check string) "label" "victim" x.Span.x_label;
    Alcotest.(check string) "origin" "h0" x.Span.x_origin;
    Alcotest.(check int) "start tick" 5 x.Span.x_start;
    Alcotest.(check (list string)) "events oldest-first" [ "victim"; "hop" ]
      (List.map (fun e -> e.Span.e_label) x.Span.x_events)
  | l -> Alcotest.failf "expected 1 exported span, got %d" (List.length l));
  Span.clear_export_hook s;
  let (_ : int) = Span.start s ~host:"h0" ~tick:9 "unwatched" in
  Alcotest.(check int) "cleared hook fires no more" 1 (List.length !seen);
  Alcotest.(check int) "evictions continue regardless" 2 (Span.evicted s)

let test_evictions_counted_in_registry () =
  let obs = Obs.create () in
  Span.set_retention obs.Obs.spans 3;
  for i = 1 to 10 do
    ignore (Span.start obs.Obs.spans ~host:"h" ~tick:i "s")
  done;
  Alcotest.(check int) "spans.evicted counter tracks the store" 7
    (Metrics.counter obs.Obs.metrics "spans.evicted");
  Alcotest.(check int) "store agrees" 7 (Span.evicted obs.Obs.spans)

let suite =
  [
    case "histogram: exact nearest-rank quantiles" test_hist_known_distribution;
    case "histogram: skewed distribution" test_hist_skewed_distribution;
    case "snapshot and text rendering" test_snapshot_render;
    case "span timeline: cross-host update under faults" test_span_timeline_cross_host;
    case "stats ctl-name: local and NFS-interposed" test_stats_ctl_local_and_nfs;
    case "span status: evicted vs unknown" test_span_status_evicted_vs_unknown;
    case "export hook: full record before eviction" test_export_hook_sees_full_record;
    case "spans.evicted surfaces in the metrics registry" test_evictions_counted_in_registry;
  ]
