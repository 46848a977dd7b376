(* Raft safety: unit coverage of election / replication / persistence /
   compaction over a direct Sim_net harness, qcheck properties asserting
   the paper's safety invariants — election safety (at most one leader
   per term), log matching, committed-entry durability — under random
   partition / crash / timeout schedules, and cluster-level recovery of
   the control plane through a full UFS crash_reboot. *)

open Util

(* ------------------------------------------------------------------ *)
(* Direct harness: n members over one Sim_net, each with an in-memory
   "durable" store (a ref cell standing in for the cluster harness's
   UFS file) and a trivially snapshottable state machine: the list of
   applied commands.  Commands never contain ','. *)

type node = {
  n_raft : Raft.t;
  n_id : Sim_net.host_id;
  mutable n_state : string list;  (* applied commands, newest first *)
  n_store : string option ref;    (* survives crash_recover *)
}

type group = {
  g_clock : Clock.t;
  g_net : Sim_net.t;
  g_nodes : node array;
}

let mk_group ?(config = Raft.default_config) ~seed n =
  let clock = Clock.create () in
  let obs = Obs.create () in
  let net = Sim_net.create ~seed ~obs ~indexed:true clock in
  let peers = List.init n (Printf.sprintf "m%d") in
  let nodes =
    Array.init n (fun i ->
        let id = Sim_net.add_host net (Printf.sprintf "m%d" i) in
        let store = ref None in
        let rec node =
          lazy
            {
              n_raft =
                Raft.create ~config ~seed:(seed + (31 * i))
                  ~persist:
                    {
                      Raft.p_save = (fun s -> store := Some s);
                      p_load = (fun () -> !store);
                    }
                  ~obs ~net ~peers
                  ~apply:(fun ~index:_ cmd ->
                    let node = Lazy.force node in
                    node.n_state <- cmd :: node.n_state)
                  ~snapshot:(fun () ->
                    String.concat "," (List.rev (Lazy.force node).n_state))
                  ~restore:(fun s ->
                    (Lazy.force node).n_state <-
                      (if s = "" then []
                       else List.rev (String.split_on_char ',' s)))
                  id;
              n_id = id;
              n_state = [];
              n_store = store;
            }
        in
        Lazy.force node)
  in
  { g_clock = clock; g_net = net; g_nodes = nodes }

let step g =
  Clock.advance g.g_clock 1;
  let (_ : int) = Sim_net.pump g.g_net in
  Array.iter (fun n -> Raft.tick n.n_raft) g.g_nodes

let steps g k = for _ = 1 to k do step g done

let leader g =
  let found = ref None in
  Array.iteri
    (fun i n -> if Raft.role n.n_raft = Raft.Leader then
        match !found with
        | Some (_, t) when t >= Raft.term n.n_raft -> ()
        | _ -> found := Some (i, Raft.term n.n_raft))
    g.g_nodes;
  Option.map fst !found

(* Run until a leader exists (bounded); elections are randomized but
   seeded, so failure to elect within the bound is a real bug. *)
let await_leader g =
  let n = ref 0 in
  while leader g = None && !n < 200 do step g; incr n done;
  match leader g with
  | Some i -> i
  | None -> Alcotest.fail "no leader elected within 200 ticks"

let submit_ok g cmd =
  let l = await_leader g in
  match Raft.submit g.g_nodes.(l).n_raft cmd with
  | Ok idx -> idx
  | Error _ -> Alcotest.fail "submit on the leader was redirected"

let final_state n = List.rev n.n_state

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let test_election_and_replication () =
  let g = mk_group ~seed:11 3 in
  let l = await_leader g in
  (* Exactly one leader once settled, and everyone agrees who. *)
  steps g 30;
  let leaders =
    Array.to_list g.g_nodes
    |> List.filteri (fun _ n -> Raft.role n.n_raft = Raft.Leader)
  in
  Alcotest.(check int) "one leader" 1 (List.length leaders);
  Array.iter
    (fun n ->
      Alcotest.(check (option string)) "everyone knows the leader"
        (Some (Printf.sprintf "m%d" l))
        (Raft.leader_hint n.n_raft))
    g.g_nodes;
  (* A follower redirects to it. *)
  let f = (l + 1) mod 3 in
  (match Raft.submit g.g_nodes.(f).n_raft "nope" with
  | Ok _ -> Alcotest.fail "follower accepted a submit"
  | Error hint ->
    Alcotest.(check (option string)) "redirect names the leader"
      (Some (Printf.sprintf "m%d" l)) hint);
  (* Commands commit and apply in order on every member. *)
  List.iter (fun c -> ignore (submit_ok g c)) [ "a"; "b"; "c" ];
  steps g 30;
  Array.iter
    (fun n ->
      Alcotest.(check (list string)) "applied in order everywhere"
        [ "a"; "b"; "c" ] (final_state n))
    g.g_nodes

let test_crash_recovery_durability () =
  let g = mk_group ~seed:23 3 in
  List.iter (fun c -> ignore (submit_ok g c)) [ "x"; "y" ];
  steps g 30;
  (* Power-cycle the whole group: volatile state gone, hard state only
     through the persist hooks. *)
  Array.iter
    (fun n ->
      Alcotest.(check bool) "hard state was persisted" true (!(n.n_store) <> None);
      Raft.crash_recover n.n_raft)
    g.g_nodes;
  Array.iter
    (fun n ->
      Alcotest.(check (list string)) "state machine rolled back to snapshot" []
        (final_state n))
    g.g_nodes;
  (* A new leader re-advances the commit index and every committed
     command is re-applied — nothing lost, nothing duplicated. *)
  ignore (await_leader g);
  steps g 40;
  Array.iter
    (fun n ->
      Alcotest.(check (list string)) "committed prefix survives the crash"
        [ "x"; "y" ] (final_state n))
    g.g_nodes

let test_snapshot_catchup () =
  (* A tiny compaction threshold and a partitioned straggler: the leader
     compacts past the straggler's log, so on heal the catch-up must go
     through InstallSnapshot, not AppendEntries. *)
  let config = { Raft.default_config with snapshot_threshold = 3 } in
  let g = mk_group ~config ~seed:37 3 in
  let l = await_leader g in
  steps g 10;
  let straggler = (l + 1) mod 3 in
  Sim_net.set_partition g.g_net
    [ [ g.g_nodes.(straggler).n_id ];
      List.filteri (fun i _ -> i <> straggler)
        (Array.to_list (Array.map (fun n -> n.n_id) g.g_nodes)) ];
  for k = 1 to 8 do
    ignore (submit_ok g (Printf.sprintf "c%d" k));
    steps g 6
  done;
  let l = Option.get (leader g) in
  Alcotest.(check bool) "leader compacted its log" true
    (Raft.snapshot_index g.g_nodes.(l).n_raft > 0);
  Sim_net.heal g.g_net;
  steps g 60;
  let expect = final_state g.g_nodes.(l) in
  Alcotest.(check bool) "straggler restored from a snapshot" true
    (Raft.snapshot_index g.g_nodes.(straggler).n_raft > 0);
  Alcotest.(check (list string)) "straggler caught up" expect
    (final_state g.g_nodes.(straggler))

(* ------------------------------------------------------------------ *)
(* qcheck: safety under random partition / crash / timeout schedules   *)

type event =
  | Run of int             (* tick k times *)
  | Partition of int       (* pick one of a fixed set of splits *)
  | Heal
  | Submit of int          (* client submission attempt via node i *)
  | Crash of int           (* crash_recover node i *)

let event_gen n =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> Run (1 + k)) (int_bound 11));
        (2, map (fun i -> Partition i) (int_bound 3));
        (1, return Heal);
        (3, map (fun i -> Submit (i mod n)) (int_bound (n - 1)));
        (1, map (fun i -> Crash (i mod n)) (int_bound (n - 1)));
      ])

let schedule_gen n =
  QCheck.Gen.(pair (int_bound 1_000_000) (list_size (int_range 10 40) (event_gen n)))

let print_schedule (seed, events) =
  Printf.sprintf "seed=%d [%s]" seed
    (String.concat "; "
       (List.map
          (function
            | Run k -> Printf.sprintf "run %d" k
            | Partition i -> Printf.sprintf "partition %d" i
            | Heal -> "heal"
            | Submit i -> Printf.sprintf "submit@%d" i
            | Crash i -> Printf.sprintf "crash %d" i)
          events))

(* The splits a Partition event can choose between (5 nodes): quorum /
   minority, no-quorum three-way, isolate one, lopsided. *)
let splits =
  [|
    [ [ 0; 1; 2 ]; [ 3; 4 ] ];
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ];
    [ [ 0 ]; [ 1; 2; 3; 4 ] ];
    [ [ 0; 1; 2; 3 ]; [ 4 ] ];
  |]

let raft_safety_prop (seed, events) =
  let n = 5 in
  let config = { Raft.default_config with snapshot_threshold = 5 } in
  let g = mk_group ~config ~seed:(1 + (seed mod 99991)) n in
  (* term -> leader host observed at that term; the core safety claim is
     that no term ever shows two. *)
  let leaders_by_term : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let election_safe = ref true in
  let committed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let observe () =
    Array.iter
      (fun node ->
        (if Raft.role node.n_raft = Raft.Leader then
           let t = Raft.term node.n_raft in
           match Hashtbl.find_opt leaders_by_term t with
           | None -> Hashtbl.replace leaders_by_term t (Raft.host node.n_raft)
           | Some h -> if h <> Raft.host node.n_raft then election_safe := false);
        (* Anything any node has applied was committed. *)
        List.iter (fun c -> Hashtbl.replace committed c ())
          node.n_state)
      g.g_nodes
  in
  let tick () = step g; observe () in
  let counter = ref 0 in
  List.iter
    (function
      | Run k -> for _ = 1 to k do tick () done
      | Partition i ->
        Sim_net.set_partition g.g_net
          (List.map (List.map (fun j -> g.g_nodes.(j).n_id)) splits.(i))
      | Heal -> Sim_net.heal g.g_net
      | Submit i ->
        incr counter;
        (* Clients are dumb on purpose: try one node, follow one
           redirect, give up otherwise — commitment is never assumed. *)
        let cmd = Printf.sprintf "op%d" !counter in
        (match Raft.submit g.g_nodes.(i).n_raft cmd with
        | Ok _ -> ()
        | Error (Some h) ->
          Array.iter
            (fun node ->
              if Raft.host node.n_raft = h then
                ignore (Raft.submit node.n_raft cmd))
            g.g_nodes
        | Error None -> ());
        tick ()
      | Crash i ->
        Raft.crash_recover g.g_nodes.(i).n_raft;
        tick ())
    events;
  (* Heal and let the group settle: a leader must emerge and every
     member must converge on one state machine. *)
  Sim_net.heal g.g_net;
  for _ = 1 to 300 do tick () done;
  let l =
    match leader g with
    | Some l -> l
    | None -> QCheck.Test.fail_report "no leader after heal + 300 ticks"
  in
  let canonical = final_state g.g_nodes.(l) in
  (* Log matching: wherever two logs share an (index, term) pair, they
     must agree on every earlier shared index too. *)
  let log_matching =
    let ok = ref true in
    Array.iter
      (fun a ->
        Array.iter
          (fun b ->
            if a != b then begin
              let la = Raft.log_view a.n_raft and lb = Raft.log_view b.n_raft in
              let common =
                List.filter_map
                  (fun (i, ta) ->
                    Option.map (fun tb -> (i, ta, tb)) (List.assoc_opt i lb))
                  la
              in
              let agree_max =
                List.fold_left
                  (fun acc (i, ta, tb) -> if ta = tb then max acc i else acc)
                  0 common
              in
              List.iter
                (fun (i, ta, tb) ->
                  if i <= agree_max && ta <> tb then ok := false)
                common
            end)
          g.g_nodes)
      g.g_nodes;
    !ok
  in
  let all_converged =
    Array.for_all (fun node -> final_state node = canonical) g.g_nodes
  in
  (* Durability: everything ever applied anywhere — including before
     crashes and across snapshot compaction — is in the final history. *)
  let durable =
    Hashtbl.fold
      (fun c () acc -> acc && List.mem c canonical)
      committed true
  in
  if not !election_safe then
    QCheck.Test.fail_report "two leaders observed in one term";
  if not log_matching then
    QCheck.Test.fail_report "log matching violated";
  if not all_converged then
    QCheck.Test.fail_report "state machines diverged after heal";
  if not durable then
    QCheck.Test.fail_report "a committed command vanished";
  true

let props =
  [
    QCheck.Test.make ~name:"raft safety under random schedules" ~count:60
      (QCheck.make ~print:print_schedule (schedule_gen 5))
      raft_safety_prop;
  ]

(* ------------------------------------------------------------------ *)
(* Cluster-level: the control plane survives a real UFS crash_reboot   *)

let test_cluster_reboot_durability () =
  let cfg = Gossip.default_config in
  let cluster =
    Cluster.create ~seed:91 ~nhosts:5 ~gossip:cfg
      ~control:(`Raft [ 0; 1; 2 ]) ~journal_blocks:32 ()
  in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let rid = ok (Cluster.add_replica cluster ~host:3 vref) in
  Alcotest.(check bool) "an election happened" true
    (Cluster.raft_leader cluster <> None);
  (* Crash every coordinator at once: buffer caches drop, journals
     replay, raft reloads its hard state from the recovered file and the
     registry is rebuilt from snapshot + re-applied entries. *)
  List.iter (fun i -> ok (Cluster.reboot cluster i)) [ 0; 1; 2 ];
  (* Recovery rolls each member back to its snapshot; the committed
     suffix is re-applied as the next leader re-advances the commit
     index, so wait for the registry to reappear everywhere, not just
     for the election. *)
  let recovered i =
    match Cluster.control_plane (Cluster.host cluster i) with
    | None -> false
    | Some cp -> (
      match Control_plane.volume cp ~alloc:vref.Ids.alloc ~vol:vref.Ids.vol with
      | Some (reps, _) -> List.mem_assoc rid reps
      | None -> false)
  in
  let n = ref 0 in
  while
    (not (List.for_all recovered [ 0; 1; 2 ] && Cluster.raft_leader cluster <> None))
    && !n < 300
  do
    ignore (Cluster.tick_daemons cluster 1);
    incr n
  done;
  Alcotest.(check bool) "re-elected after the crash" true
    (Cluster.raft_leader cluster <> None);
  (* The committed registry survived: every coordinator still reports
     the post-add replica set. *)
  List.iter
    (fun i ->
      match Cluster.control_plane (Cluster.host cluster i) with
      | None -> Alcotest.fail "coordinator lost its control plane"
      | Some cp -> (
        match Control_plane.volume cp ~alloc:vref.Ids.alloc ~vol:vref.Ids.vol with
        | None -> Alcotest.fail "volume registration lost in the crash"
        | Some (reps, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "host%d still knows the added replica" i)
            true (List.mem_assoc rid reps)))
    [ 0; 1; 2 ];
  (* And the control plane still takes writes. *)
  ok (Cluster.remove_replica cluster ~host:3 vref);
  match Cluster.control_plane (Cluster.host cluster 0) with
  | Some cp ->
    let reps, _ =
      Option.get (Control_plane.volume cp ~alloc:vref.Ids.alloc ~vol:vref.Ids.vol)
    in
    Alcotest.(check bool) "post-reboot removal committed" false
      (List.mem_assoc rid reps)
  | None -> Alcotest.fail "control plane missing"

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "election and replication" `Quick
        test_election_and_replication;
      Alcotest.test_case "crash recovery keeps committed entries" `Quick
        test_crash_recovery_durability;
      Alcotest.test_case "snapshot catch-up of a compacted straggler" `Quick
        test_snapshot_catchup;
      Alcotest.test_case "control plane survives UFS crash_reboot" `Quick
        test_cluster_reboot_durability;
    ]
