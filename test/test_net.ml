(* The simulated network: clock, partitions, datagram semantics, RPC. *)

open Util

type Sim_net.payload += Ping of int | Pong of int

let setup () =
  let clock = Clock.create () in
  let net = Sim_net.create ~seed:42 ~obs:(Obs.create ()) ~indexed:true clock in
  let a = Sim_net.add_host net "a" in
  let b = Sim_net.add_host net "b" in
  let c = Sim_net.add_host net "c" in
  (clock, net, a, b, c)

let test_clock () =
  let clock = Clock.create () in
  Alcotest.(check int) "start" 0 (Clock.now clock);
  Clock.advance clock 10;
  Clock.tick clock;
  Alcotest.(check int) "advanced" 11 (Clock.now clock);
  Alcotest.(check int) "fn" 11 (Clock.fn clock ());
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance") (fun () ->
      Clock.advance clock (-1))

let test_datagram_delivery () =
  let _, net, a, b, _ = setup () in
  let received = ref [] in
  Sim_net.register_handler net b (fun ~src payload ->
      match payload with Ping n -> received := (src, n) :: !received | _ -> ());
  Sim_net.send net ~src:a ~dst:b (Ping 1);
  Sim_net.send net ~src:a ~dst:b (Ping 2);
  Alcotest.(check int) "queued" 2 (Sim_net.pending net);
  Alcotest.(check (list (pair int int))) "not yet delivered" [] !received;
  Alcotest.(check int) "pumped" 2 (Sim_net.pump net);
  Alcotest.(check (list (pair int int))) "in order" [ (a, 2); (a, 1) ] !received

let test_partition_drops_datagrams () =
  let _, net, a, b, c = setup () in
  let count = ref 0 in
  List.iter
    (fun h -> Sim_net.register_handler net h (fun ~src:_ _ -> incr count))
    [ b; c ];
  Sim_net.set_partition net [ [ a; b ]; [ c ] ];
  Sim_net.broadcast net ~src:a ~dst:[ b; c ] (Ping 9);
  let delivered = Sim_net.pump net in
  Alcotest.(check int) "only the same-side host" 1 delivered;
  Alcotest.(check int) "handler fired once" 1 !count;
  (* Reachability is evaluated at delivery time: a message sent while
     connected still dies if the partition forms first. *)
  Sim_net.heal net;
  Sim_net.send net ~src:a ~dst:c (Ping 10);
  Sim_net.set_partition net [ [ a ]; [ b; c ] ];
  Alcotest.(check int) "cut before the pump" 0 (Sim_net.pump net)

let test_datagram_loss () =
  let clock = Clock.create () in
  let net = Sim_net.create ~seed:3 ~obs:(Obs.create ()) ~indexed:true clock in
  Sim_net.set_faults net { Sim_net.no_faults with loss = 1.0 };
  let a = Sim_net.add_host net "a" in
  let b = Sim_net.add_host net "b" in
  let hits = ref 0 in
  Sim_net.register_handler net b (fun ~src:_ _ -> incr hits);
  for _ = 1 to 10 do
    Sim_net.send net ~src:a ~dst:b (Ping 0)
  done;
  Alcotest.(check int) "all lost" 0 (Sim_net.pump net);
  Alcotest.(check int) "none seen" 0 !hits;
  Alcotest.(check int) "counted as dropped" 10
    (Counters.get (Sim_net.counters net) "net.datagrams.dropped")

let test_isolate_and_heal () =
  let _, net, a, b, c = setup () in
  Sim_net.isolate net b;
  Alcotest.(check bool) "a-c fine" true (Sim_net.reachable net a c);
  Alcotest.(check bool) "a-b cut" false (Sim_net.reachable net a b);
  Alcotest.(check bool) "self always" true (Sim_net.reachable net b b);
  Sim_net.heal net;
  Alcotest.(check bool) "healed" true (Sim_net.reachable net a b)

let test_unlisted_hosts_become_isolated () =
  let _, net, a, b, c = setup () in
  Sim_net.set_partition net [ [ a; b ] ];
  Alcotest.(check bool) "c cut from a" false (Sim_net.reachable net a c);
  Alcotest.(check bool) "c cut from b" false (Sim_net.reachable net b c)

let test_rpc_roundtrip_and_errors () =
  let _, net, a, b, _ = setup () in
  Sim_net.register_rpc net b (fun ~src:_ payload ->
      match payload with Ping n -> Some (Pong (n + 1)) | _ -> None);
  (match Sim_net.call net ~src:a ~dst:b (Ping 41) with
   | Ok (Pong 42) -> ()
   | Ok _ -> Alcotest.fail "wrong response"
   | Error e -> Alcotest.failf "rpc failed: %s" (Errno.to_string e));
  (* No matching handler. *)
  (match Sim_net.call net ~src:a ~dst:b (Pong 0) with
   | Error Errno.ENOTSUP -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected ENOTSUP");
  (* Across a partition. *)
  Sim_net.set_partition net [ [ a ]; [ b ] ];
  match Sim_net.call net ~src:a ~dst:b (Ping 0) with
  | Error Errno.EUNREACHABLE -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected EUNREACHABLE"

let test_multiple_handlers_first_wins () =
  let _, net, a, b, _ = setup () in
  Sim_net.register_rpc net b (fun ~src:_ -> function Ping 1 -> Some (Pong 100) | _ -> None);
  Sim_net.register_rpc net b (fun ~src:_ -> function Ping _ -> Some (Pong 200) | _ -> None);
  (match Sim_net.call net ~src:a ~dst:b (Ping 1) with
   | Ok (Pong 100) -> ()
   | _ -> Alcotest.fail "first handler should win");
  match Sim_net.call net ~src:a ~dst:b (Ping 2) with
  | Ok (Pong 200) -> ()
  | _ -> Alcotest.fail "second handler should catch the rest"

(* ------------------------------------------------------------------ *)
(* Fault injection.  Probabilities are pinned to 0.0/1.0 so every
   assertion is deterministic regardless of the PRNG stream. *)

let faults_with ?(loss = 0.0) ?(rpc = 0.0) ?(lat_min = 0) ?(lat_max = 0) ?(dup = 0.0)
    ?(reorder = 0.0) () =
  {
    Sim_net.loss;
    rpc_failure_prob = rpc;
    latency_min = lat_min;
    latency_max = lat_max;
    duplication_prob = dup;
    reorder_prob = reorder;
  }

let test_latency_delays_delivery () =
  let clock, net, a, b, _ = setup () in
  Sim_net.set_faults net (faults_with ~lat_min:2 ~lat_max:2 ());
  let received = ref [] in
  Sim_net.register_handler net b (fun ~src:_ payload ->
      match payload with Ping n -> received := !received @ [ n ] | _ -> ());
  Sim_net.send net ~src:a ~dst:b (Ping 1);
  Alcotest.(check int) "not due yet" 0 (Sim_net.pump net);
  Alcotest.(check int) "still queued" 1 (Sim_net.pending net);
  Clock.advance clock 1;
  Alcotest.(check int) "one tick short" 0 (Sim_net.pump net);
  Clock.advance clock 1;
  Alcotest.(check int) "due now" 1 (Sim_net.pump net);
  Alcotest.(check (list int)) "delivered" [ 1 ] !received;
  (* Delivery follows due ticks, not send order: a slow packet sent
     first arrives after a fast packet sent second. *)
  Sim_net.set_faults net (faults_with ~lat_min:3 ~lat_max:3 ());
  Sim_net.send net ~src:a ~dst:b (Ping 2);
  Sim_net.set_faults net (faults_with ~lat_min:1 ~lat_max:1 ());
  Sim_net.send net ~src:a ~dst:b (Ping 3);
  Clock.advance clock 3;
  Alcotest.(check int) "both due" 2 (Sim_net.pump net);
  Alcotest.(check (list int)) "due order, not send order" [ 1; 3; 2 ] !received

let test_duplication () =
  let _, net, a, b, _ = setup () in
  Sim_net.set_faults net (faults_with ~dup:1.0 ());
  let hits = ref 0 in
  Sim_net.register_handler net b (fun ~src:_ _ -> incr hits);
  Sim_net.send net ~src:a ~dst:b (Ping 7);
  Alcotest.(check int) "original + duplicate queued" 2 (Sim_net.pending net);
  Alcotest.(check int) "both delivered" 2 (Sim_net.pump net);
  Alcotest.(check int) "handler saw two" 2 !hits;
  Alcotest.(check int) "counted" 1
    (Counters.get (Sim_net.counters net) "net.datagrams.duplicated")

let test_reordering () =
  let _, net, a, b, _ = setup () in
  Sim_net.set_faults net (faults_with ~reorder:1.0 ());
  let received = ref [] in
  Sim_net.register_handler net b (fun ~src:_ payload ->
      match payload with Ping n -> received := !received @ [ n ] | _ -> ());
  Sim_net.send net ~src:a ~dst:b (Ping 1);
  Sim_net.send net ~src:a ~dst:b (Ping 2);
  Alcotest.(check int) "both delivered" 2 (Sim_net.pump net);
  Alcotest.(check (list int)) "adjacent pair swapped" [ 2; 1 ] !received;
  Alcotest.(check bool) "counted" true
    (Counters.get (Sim_net.counters net) "net.datagrams.reordered" > 0)

let test_rpc_failure_injection () =
  let _, net, a, b, _ = setup () in
  Sim_net.register_rpc net b (fun ~src:_ -> function Ping n -> Some (Pong n) | _ -> None);
  Sim_net.set_faults net (faults_with ~rpc:1.0 ());
  (match Sim_net.call net ~src:a ~dst:b (Ping 1) with
   | Error Errno.EUNREACHABLE -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected injected EUNREACHABLE");
  Alcotest.(check int) "injected counted" 1
    (Counters.get (Sim_net.counters net) "net.rpc.injected");
  Sim_net.clear_faults net;
  match Sim_net.call net ~src:a ~dst:b (Ping 1) with
  | Ok (Pong 1) -> ()
  | _ -> Alcotest.fail "clear_faults should restore RPCs"

let test_asymmetric_sever () =
  let _, net, a, b, _ = setup () in
  Sim_net.register_rpc net a (fun ~src:_ -> function Ping n -> Some (Pong n) | _ -> None);
  let hits = ref 0 in
  Sim_net.register_handler net b (fun ~src:_ _ -> incr hits);
  Sim_net.sever net ~src:a ~dst:b;
  Alcotest.(check bool) "a->b cut" false (Sim_net.reachable net a b);
  Alcotest.(check bool) "b->a still flows" true (Sim_net.reachable net b a);
  Sim_net.send net ~src:a ~dst:b (Ping 1);
  Alcotest.(check int) "datagram dropped" 0 (Sim_net.pump net);
  (match Sim_net.call net ~src:b ~dst:a (Ping 5) with
   | Ok (Pong 5) -> ()
   | _ -> Alcotest.fail "reverse direction must still work");
  Sim_net.unsever net ~src:a ~dst:b;
  Sim_net.send net ~src:a ~dst:b (Ping 2);
  Alcotest.(check int) "restored" 1 (Sim_net.pump net)

let test_flaky_host_window () =
  let clock, net, a, b, c = setup () in
  Sim_net.set_flaky net b ~until:5;
  Alcotest.(check bool) "cut while flaky" false (Sim_net.reachable net a b);
  Alcotest.(check bool) "both directions" false (Sim_net.reachable net b a);
  Alcotest.(check bool) "others unaffected" true (Sim_net.reachable net a c);
  (match Sim_net.call net ~src:a ~dst:b (Ping 1) with
   | Error Errno.EUNREACHABLE -> ()
   | _ -> Alcotest.fail "flaky host must not answer RPCs");
  Clock.advance clock 5;
  Alcotest.(check bool) "window over" true (Sim_net.reachable net a b);
  (* heal ends a window early. *)
  Sim_net.set_flaky net b ~until:1000;
  Alcotest.(check bool) "flaky again" false (Sim_net.reachable net a b);
  Sim_net.heal net;
  Alcotest.(check bool) "healed early" true (Sim_net.reachable net a b)

let test_isolate_robust_to_sparse_groups () =
  (* Regression: isolate must pick a group no other host occupies, even
     after set_partition left arbitrary group ids behind and across
     repeated calls. *)
  let _, net, a, b, c = setup () in
  Sim_net.set_partition net [ [ b ]; [ a; c ] ];
  Sim_net.isolate net a;
  Alcotest.(check bool) "a cut from b" false (Sim_net.reachable net a b);
  Alcotest.(check bool) "a cut from c" false (Sim_net.reachable net a c);
  Sim_net.isolate net a;
  Alcotest.(check bool) "still cut from b" false (Sim_net.reachable net a b);
  Alcotest.(check bool) "still cut from c" false (Sim_net.reachable net a c);
  Sim_net.isolate net c;
  Alcotest.(check bool) "b-c cut" false (Sim_net.reachable net b c);
  Alcotest.(check bool) "a-c cut" false (Sim_net.reachable net a c);
  Sim_net.heal net;
  Alcotest.(check bool) "all back" true
    (Sim_net.reachable net a b && Sim_net.reachable net b c && Sim_net.reachable net a c)

let suite =
  [
    case "clock" test_clock;
    case "datagram delivery order" test_datagram_delivery;
    case "partitions drop datagrams at delivery" test_partition_drops_datagrams;
    case "datagram loss" test_datagram_loss;
    case "isolate and heal" test_isolate_and_heal;
    case "unlisted hosts become isolated" test_unlisted_hosts_become_isolated;
    case "rpc roundtrip and errors" test_rpc_roundtrip_and_errors;
    case "multiple rpc handlers" test_multiple_handlers_first_wins;
    case "latency delays delivery" test_latency_delays_delivery;
    case "duplication" test_duplication;
    case "reordering" test_reordering;
    case "rpc failure injection" test_rpc_failure_injection;
    case "asymmetric sever" test_asymmetric_sever;
    case "flaky host window" test_flaky_host_window;
    case "isolate robust to sparse groups" test_isolate_robust_to_sparse_groups;
  ]
