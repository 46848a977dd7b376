(* Gossip membership: algebraic laws of the anti-entropy merge (the
   entry join is a semilattice, so any delivery order with duplicates
   converges), the heartbeat failure detector's lifecycle, and
   remove_replica-during-partition converging everywhere after heal. *)

open Util

(* ------------------------------------------------------------------ *)
(* entry_join laws (qcheck)                                            *)

let mk_entry (host, ((inc, hb), ((left, cindex), (reps, span)))) =
  {
    Gossip.e_host = host;
    e_incarnation = 1 + inc;
    e_heartbeat = hb;
    e_status = (if left then Gossip.Left else Gossip.Member);
    e_replicas = List.sort_uniq compare reps;
    e_cindex = cindex;
    e_span = span;
  }

let entry_body_gen =
  QCheck.Gen.(
    pair
      (pair (int_bound 2) (int_bound 6))
      (pair
         (pair bool (int_bound 5))
         (pair
            (list_size (int_bound 3)
               (triple (int_bound 1) (int_bound 2) (int_range 1 4)))
            (int_bound 3))))

let entry_to_string (e : Gossip.entry) =
  Printf.sprintf "%s/inc=%d/hb=%d/%s/%d replicas/span=%d" e.Gossip.e_host
    e.Gossip.e_incarnation e.Gossip.e_heartbeat
    (match e.Gossip.e_status with Gossip.Member -> "member" | Gossip.Left -> "left")
    (List.length e.Gossip.e_replicas)
    e.Gossip.e_span

(* All entries for one host: [entry_join] only joins same-host entries. *)
let arb_entry =
  QCheck.make ~print:entry_to_string
    QCheck.Gen.(map (fun b -> mk_entry ("h", b)) entry_body_gen)

(* Entries across a few hosts, as a gossip delta stream. *)
let arb_stream =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map entry_to_string l))
    QCheck.Gen.(
      list_size (int_bound 12)
        (map mk_entry (pair (oneofl [ "a"; "b"; "c" ]) entry_body_gen)))

(* A membership table is a fold of entry_join per host — exactly what
   applying a stream of received gossip deltas does. *)
let apply stream =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (e : Gossip.entry) ->
      match Hashtbl.find_opt table e.Gossip.e_host with
      | None -> Hashtbl.replace table e.Gossip.e_host e
      | Some old -> Hashtbl.replace table e.Gossip.e_host (Gossip.entry_join old e))
    stream;
  Hashtbl.fold (fun h e acc -> (h, e) :: acc) table []
  |> List.sort compare

let prop name ?(count = 300) arb f = QCheck.Test.make ~name ~count arb f

let props =
  [
    prop "entry_join commutative" (QCheck.pair arb_entry arb_entry)
      (fun (a, b) -> Gossip.entry_join a b = Gossip.entry_join b a);
    prop "entry_join associative"
      (QCheck.triple arb_entry arb_entry arb_entry)
      (fun (a, b, c) ->
        Gossip.entry_join a (Gossip.entry_join b c)
        = Gossip.entry_join (Gossip.entry_join a b) c);
    prop "entry_join idempotent" arb_entry (fun a -> Gossip.entry_join a a = a);
    prop "entry_join is an upper bound" (QCheck.pair arb_entry arb_entry)
      (fun (a, b) ->
        let j = Gossip.entry_join a b in
        compare (Gossip.entry_key j) (Gossip.entry_key a) >= 0
        && compare (Gossip.entry_key j) (Gossip.entry_key b) >= 0);
    (* Anti-entropy exchange order doesn't matter... *)
    prop "table merge order-insensitive" (QCheck.pair arb_stream arb_stream)
      (fun (l1, l2) -> apply (l1 @ l2) = apply (l2 @ l1));
    prop "table merge reversal-insensitive" arb_stream (fun l ->
        apply l = apply (List.rev l));
    (* ...and neither do duplicated deliveries. *)
    prop "table merge duplicate-insensitive" arb_stream (fun l ->
        apply (l @ l) = apply l);
  ]

(* ------------------------------------------------------------------ *)
(* Failure-detector lifecycle (real daemons over a cluster)            *)

let test_failure_detector () =
  let cfg = Gossip.default_config in
  let cluster = Cluster.create ~seed:7 ~nhosts:3 ~gossip:cfg () in
  let g0 = Option.get (Cluster.gossip (Cluster.host cluster 0)) in
  let round () = ignore (Cluster.tick_daemons cluster cfg.Gossip.period) in
  for _ = 1 to 4 do round () done;
  Alcotest.(check bool) "host2 alive while gossiping" true
    (Gossip.liveness g0 "host2" = Gossip.Alive);
  Cluster.set_flaky cluster 2
    ~until:(Clock.now (Cluster.clock cluster) + 10_000);
  for _ = 1 to cfg.Gossip.suspect_missed + 1 do round () done;
  Alcotest.(check bool) "host2 doubtful after silent periods" true
    (Gossip.liveness g0 "host2" <> Gossip.Alive);
  for _ = 1 to cfg.Gossip.dead_missed do round () done;
  Alcotest.(check bool) "host2 dead after more silence" true
    (Gossip.liveness g0 "host2" = Gossip.Dead);
  (* The verdict is advisory and revocable: once the host talks again
     (dead peers still get probed), fresher state refutes the rumor. *)
  Cluster.heal cluster;
  let n = ref 0 in
  while Gossip.liveness g0 "host2" <> Gossip.Alive && !n < 64 do
    round ();
    incr n
  done;
  Alcotest.(check bool) "host2 refuted back to alive" true
    (Gossip.liveness g0 "host2" = Gossip.Alive)

(* A silence longer than the suspect timeout outlives its verdict as a
   doubt, recorded when news of the peer returns; a consumer's report
   is one too, and without a detector everyone is always doubted. *)
let test_doubts () =
  let cfg = Gossip.default_config in
  let cluster = Cluster.create ~seed:7 ~nhosts:3 ~gossip:cfg () in
  let g0 = Option.get (Cluster.gossip (Cluster.host cluster 0)) in
  let now () = Clock.now (Cluster.clock cluster) in
  let tick n = for _ = 1 to n do ignore (Cluster.tick_daemons cluster 1) done in
  tick 40;
  let cut = now () in
  Alcotest.(check bool) "not doubted since the cut" true (Gossip.doubted_at g0 "host2" < cut);
  Cluster.partition cluster [ [ 0; 1 ]; [ 2 ] ];
  tick (4 * cfg.Gossip.period * cfg.Gossip.suspect_missed);
  Alcotest.(check int) "doubted while judged doubtful" (now ()) (Gossip.doubted_at g0 "host2");
  Cluster.heal cluster;
  let n = ref 0 in
  while Gossip.liveness g0 "host2" <> Gossip.Alive && !n < 64 do
    tick 1;
    incr n
  done;
  let heard = Gossip.doubted_at g0 "host2" in
  Alcotest.(check bool) "the silence ended in a doubt" true (heard > cut);
  tick 10;
  Alcotest.(check int) "which outlives the verdict" heard (Gossip.doubted_at g0 "host2");
  Alcotest.(check bool) "host1 never doubted since the cut" true
    (Gossip.doubted_at g0 "host1" < cut);
  Gossip.doubt g0 "host1";
  Alcotest.(check int) "a reported failure is a doubt" (now ()) (Gossip.doubted_at g0 "host1");
  Alcotest.(check int) "without a detector, always doubted" max_int
    (Gossip.no_detector.Gossip.doubted_at "host1")

(* ------------------------------------------------------------------ *)
(* remove_replica inside a partition converges everywhere after heal   *)

let test_remove_during_partition () =
  let cfg = Gossip.default_config in
  let cluster = Cluster.create ~seed:5 ~nhosts:6 ~gossip:cfg () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1; 2 ]) in
  let round () = ignore (Cluster.tick_daemons cluster cfg.Gossip.period) in
  let settle limit =
    let n = ref 0 in
    while (not (Cluster.membership_converged cluster)) && !n < limit do
      round ();
      incr n
    done
  in
  settle 64;
  Alcotest.(check bool) "bootstrap membership converged" true
    (Cluster.membership_converged cluster);
  Cluster.partition cluster [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ];
  (* host2 retires its replica (rid 3): a purely local operation whose
     delta can only reach partition A for now. *)
  ok (Cluster.remove_replica cluster ~host:2 vref);
  for _ = 1 to 4 do round () done;
  Alcotest.(check bool) "views diverge across the partition" false
    (Cluster.membership_converged cluster);
  (match Cluster.replica (Cluster.host cluster 0) vref with
  | Some phys ->
    Alcotest.(check bool) "partition A already dropped rid 3" false
      (List.mem_assoc 3 (Physical.peers phys))
  | None -> Alcotest.fail "host0 lost its replica");
  Cluster.heal cluster;
  settle 64;
  Alcotest.(check bool) "membership converged after heal" true
    (Cluster.membership_converged cluster);
  List.iter
    (fun i ->
      match Cluster.gossip (Cluster.host cluster i) with
      | Some g ->
        Alcotest.(check bool)
          (Printf.sprintf "host%d's view dropped rid 3" i)
          false
          (List.mem_assoc 3
             (Gossip.replica_peers g ~alloc:vref.Ids.alloc ~vol:vref.Ids.vol))
      | None -> Alcotest.fail "gossip daemon missing")
    [ 0; 1; 2; 3; 4; 5 ];
  (* And the volume still works end to end with the survivor set. *)
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let f = ok (root0.Vnode.create "after-retirement") in
  ok (Vnode.write_all f "still available");
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  Alcotest.(check string) "survivors replicate" "still available"
    (read_file root1 "after-retirement")

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "failure detector lifecycle" `Quick test_failure_detector;
      Alcotest.test_case "silences and failures are doubts" `Quick test_doubts;
      Alcotest.test_case "remove_replica during partition converges after heal"
        `Quick test_remove_during_partition;
    ]
