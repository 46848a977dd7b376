(* The CRDT directory-merge subsystem: the pure decision kernel
   (Crdt_tree), the multi-value file registers (Mv_register), and the
   end-to-end behavior under Cluster — cycle repair, pluggable
   resolvers, the legacy oracle, and crash durability of mid-merge
   repair state. *)

open Util

(* ------------------------------------------------------------------ *)
(* Pure kernel: Crdt_tree                                              *)

let root = (0, 1)
let orphanage = (0, 2)

let link p c name birth = { Crdt_tree.l_parent = p; l_child = c; l_name = name; l_birth = birth }

let attaches res =
  List.filter_map
    (function Crdt_tree.Attach n -> Some n | _ -> None)
    res.Crdt_tree.decisions

let demotes res =
  List.filter_map
    (function Crdt_tree.Demote l -> Some l | _ -> None)
    res.Crdt_tree.decisions

let keeps res =
  List.filter_map
    (function Crdt_tree.Keep l -> Some l | _ -> None)
    res.Crdt_tree.decisions

let test_tree_orphan_attach () =
  (* A node nobody links to goes to the orphanage; a normal child does
     not. *)
  let c = (3, 7) in
  let d = (2, 9) in
  let res =
    Crdt_tree.resolve ~root ~orphanage ~nodes:[ c; d ]
      ~links:[ link root d "d" (1, 4) ]
  in
  Alcotest.(check int) "one orphan" 1 res.Crdt_tree.orphans;
  Alcotest.(check bool) "c attached" true (List.mem c (attaches res));
  Alcotest.(check bool) "d kept" true
    (List.exists (fun l -> l.Crdt_tree.l_child = d) (keeps res));
  Alcotest.(check int) "no cycles" 0 res.Crdt_tree.cycles_broken

let test_tree_multi_parent_demote () =
  (* Two live parents for one child: the later birth sequence wins, the
     other is demoted — same answer regardless of link order. *)
  let c = (3, 7) in
  let p = (2, 5) in
  let l_old = link root c "early" (1, 3) in
  let l_new = link p c "late" (2, 8) in
  let check links =
    let res =
      Crdt_tree.resolve ~root ~orphanage ~nodes:[ c; p ]
        ~links:(link root p "p" (1, 2) :: links)
    in
    Alcotest.(check bool) "late birth kept" true
      (List.exists (fun l -> l.Crdt_tree.l_name = "late") (keeps res));
    Alcotest.(check bool) "early birth demoted" true
      (List.exists (fun l -> l.Crdt_tree.l_name = "early") (demotes res));
    Alcotest.(check int) "one loser" 1 res.Crdt_tree.losers
  in
  check [ l_old; l_new ];
  check [ l_new; l_old ]

let test_tree_orphanage_link_priority () =
  (* A completed repair (an orphanage parent link) beats any later
     rename: the anti-oscillation rule. *)
  let c = (3, 7) in
  let repaired = link orphanage c "0003.0007" (0, 1) in
  let renamed = link root c "back" (5, 99) in
  let res =
    Crdt_tree.resolve ~root ~orphanage ~nodes:[ c ] ~links:[ renamed; repaired ]
  in
  Alcotest.(check bool) "orphanage link kept" true
    (List.exists (fun l -> l.Crdt_tree.l_parent = orphanage) (keeps res));
  Alcotest.(check bool) "rename demoted" true
    (List.exists (fun l -> l.Crdt_tree.l_name = "back") (demotes res))

let test_tree_cycle_cut_at_min_fid () =
  (* a -> b -> a unreachable from the root: the cycle is cut by
     attaching its smallest fid and demoting the link that kept it in
     the cycle. *)
  let a = (1, 5) and b = (2, 9) in
  let la = link b a "x" (1, 6) in
  (* a lives in b *)
  let lb = link a b "y" (2, 4) in
  (* b lives in a *)
  let res = Crdt_tree.resolve ~root ~orphanage ~nodes:[ a; b ] ~links:[ la; lb ] in
  Alcotest.(check int) "one cycle" 1 res.Crdt_tree.cycles_broken;
  Alcotest.(check (list (pair int int))) "min fid attached" [ a ] (attaches res);
  Alcotest.(check bool) "a's parent link demoted" true
    (List.exists (fun l -> l.Crdt_tree.l_name = "x") (demotes res));
  Alcotest.(check bool) "b stays under a" true
    (List.exists (fun l -> l.Crdt_tree.l_name = "y") (keeps res))

let test_tree_resolve_order_independent () =
  (* Same link set, any presentation order: identical decision sets. *)
  let a = (1, 5) and b = (2, 9) and c = (3, 3) in
  let links =
    [
      link b a "x" (1, 6);
      link a b "y" (2, 4);
      link root c "c" (1, 2);
      link a c "c2" (2, 7);
    ]
  in
  let canon res =
    List.sort compare
      (List.map
         (function
           | Crdt_tree.Keep l -> ("keep", l.Crdt_tree.l_name)
           | Crdt_tree.Demote l -> ("demote", l.Crdt_tree.l_name)
           | Crdt_tree.Attach (i, u) -> ("attach", Printf.sprintf "%d.%d" i u))
         res.Crdt_tree.decisions)
  in
  let r1 = Crdt_tree.resolve ~root ~orphanage ~nodes:[ a; b; c ] ~links in
  let r2 =
    Crdt_tree.resolve ~root ~orphanage ~nodes:[ c; b; a ] ~links:(List.rev links)
  in
  Alcotest.(check (list (pair string string))) "same decisions" (canon r1) (canon r2)

(* ------------------------------------------------------------------ *)
(* Mv_register                                                         *)

let v rid n data =
  { Mv_register.mv_vv = Version_vector.singleton rid n; mv_data = data }

let test_mv_antichain () =
  let base = v 1 1 "old" in
  let newer = { base with Mv_register.mv_vv = Version_vector.bump base.Mv_register.mv_vv 1 } in
  let reg = Mv_register.add (Mv_register.add Mv_register.empty base) newer in
  Alcotest.(check int) "dominated dropped" 1 (Mv_register.cardinal reg);
  let reg2 = Mv_register.add reg (v 2 1 "other") in
  Alcotest.(check int) "concurrent kept" 2 (Mv_register.cardinal reg2)

let test_mv_order_independence () =
  let vs = [ v 1 3 "a"; v 2 1 "b"; v 3 2 "c" ] in
  let build l = List.fold_left Mv_register.add Mv_register.empty l in
  let datas reg = List.map (fun x -> x.Mv_register.mv_data) (Mv_register.versions reg) in
  Alcotest.(check (list string)) "insertion order irrelevant"
    (datas (build vs))
    (datas (build (List.rev vs)));
  Alcotest.(check (list string)) "join agrees"
    (datas (build vs))
    (datas (Mv_register.join (build [ List.hd vs ]) (build (List.tl vs))))

let test_mv_lww_winner () =
  (* Largest vv sum wins; ties break on data digest, identically in
     both insertion orders. *)
  let a = v 1 5 "heavy" and b = v 2 2 "light" in
  let w reg = (Option.get (Mv_register.winner reg)).Mv_register.mv_data in
  Alcotest.(check string) "heavier history wins" "heavy"
    (w (Mv_register.add (Mv_register.add Mv_register.empty b) a));
  let t1 = v 1 2 "alpha" and t2 = v 2 2 "beta" in
  let w12 = w (Mv_register.add (Mv_register.add Mv_register.empty t1) t2) in
  let w21 = w (Mv_register.add (Mv_register.add Mv_register.empty t2) t1) in
  Alcotest.(check string) "tie breaks identically" w12 w21

let test_mv_merge_all () =
  let f a b = a ^ "|" ^ b in
  let vs = [ v 1 1 "x"; v 2 3 "y"; v 3 2 "z" ] in
  let build l = List.fold_left Mv_register.add Mv_register.empty l in
  let m reg = (Option.get (Mv_register.merge_all f reg)).Mv_register.mv_data in
  Alcotest.(check string) "fold order is lww order" (m (build vs)) (m (build (List.rev vs)));
  Alcotest.(check bool) "merge vv dominates inputs" true
    (let merged = Option.get (Mv_register.merge_all f (build vs)) in
     List.for_all
       (fun x -> Version_vector.dominates merged.Mv_register.mv_vv x.Mv_register.mv_vv)
       vs)

(* ------------------------------------------------------------------ *)
(* Cluster helpers                                                     *)

let phys cluster vref i = Option.get (Cluster.replica (Cluster.host cluster i) vref)

let digest_of cluster vref i = ok (Crdt_merge.digest (phys cluster vref i))

let stats_of cluster vref i = ok (Crdt_merge.tree_stats (phys cluster vref i))

let check_clean_tree cluster vref i =
  let s = stats_of cluster vref i in
  Alcotest.(check int)
    (Printf.sprintf "host%d: no unreachable dirs" i)
    0 s.Crdt_merge.ts_unreachable_dirs;
  Alcotest.(check int) (Printf.sprintf "host%d: no cycles" i) 0 s.Crdt_merge.ts_cycles

(* Every regular file's contents, live tree only. *)
let replica_contents p =
  let rec walk path acc =
    match Physical.fetch_dir p path with
    | Error _ -> acc
    | Ok fdir ->
      List.fold_left
        (fun acc (_, (e : Fdir.entry)) ->
          let child = path @ [ e.Fdir.fid ] in
          match e.Fdir.kind with
          | Aux_attrs.Freg ->
            (match Physical.fetch_file p child with
             | Ok (_, d) -> d :: acc
             | Error _ -> acc)
          | Aux_attrs.Fdir | Aux_attrs.Fgraft -> walk child acc)
        acc (Fdir.live fdir)
  in
  List.sort compare (walk [] [])

(* The concurrent cross-rename that makes a cycle: a -> b/x while
   b -> a/y in the other partition. *)
let run_cross_rename ~dir_merge =
  let cluster = Cluster.create ~nhosts:2 ~dir_merge () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (Namei.mkdir_p ~root:root0 "a/inner") in
  let _ = ok (Namei.mkdir_p ~root:root0 "b") in
  create_file root0 "a/inner/keep" "payload";
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  let b0 = ok (root0.Vnode.lookup "b") in
  ok (root0.Vnode.rename "a" b0 "x");
  let a1 = ok (root1.Vnode.lookup "a") in
  ok (root1.Vnode.rename "b" a1 "y");
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:40 ()) in
  (cluster, vref)

let test_cycle_repair_crdt () =
  let cluster, vref = run_cross_rename ~dir_merge:`Crdt in
  check_clean_tree cluster vref 0;
  check_clean_tree cluster vref 1;
  Alcotest.(check string) "replicas hold the same repaired tree"
    (digest_of cluster vref 0) (digest_of cluster vref 1);
  (* The subtree survived: the file is reachable on both replicas. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "host%d: payload reachable" i)
        true
        (List.mem "payload" (replica_contents (phys cluster vref i))))
    [ 0; 1 ];
  (* lost+found is where the cycle's cut node landed — a live root
     entry, same name everywhere. *)
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let (_ : Vnode.t) = ok (root0.Vnode.lookup Physical.lost_found_name) in
  ()

let test_cycle_not_silent_legacy () =
  (* The legacy arm of the same schedule must at least report the
     remove/update conflict — the subtree may land in the replica-local
     ORPHANS area, but never disappears without a log entry. *)
  let cluster, vref = run_cross_rename ~dir_merge:`Legacy in
  let reported i =
    List.exists
      (fun (e : Conflict_log.entry) ->
        match e.Conflict_log.detail with
        | Conflict_log.Removed_while_updated _ -> true
        | _ -> false)
      (Conflict_log.all (Physical.conflicts (phys cluster vref i)))
  in
  Alcotest.(check bool) "legacy reports the orphaned subtree" true
    (reported 0 || reported 1)

(* ------------------------------------------------------------------ *)
(* Resolvers, end to end                                               *)

(* [reboot] restarts both hosts once the partition is up, so the
   replicas that meet the conflict are the ones {!Cluster.reboot}
   re-attached: the resolver is volatile replica configuration, and
   only a reboot that re-applies the cluster's policy lets it settle. *)
let concurrent_write_cluster ?(reboot = false) ~resolver () =
  let cluster = Cluster.create ~nhosts:2 ~dir_merge:`Crdt ~resolver () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "base";
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  if reboot then List.iter (fun i -> ok (Cluster.reboot cluster i)) [ 0; 1 ];
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  write_file root0 "f" "from-zero";
  write_file root1 "f" "from-one";
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:40 ()) in
  (cluster, vref)

let pending_count p = List.length (Conflict_log.pending (Physical.conflicts p))

let check_lww_settled (cluster, vref) =
  let c0 = read_file (ok (Cluster.logical_root cluster 0 vref)) "f" in
  let c1 = read_file (ok (Cluster.logical_root cluster 1 vref)) "f" in
  Alcotest.(check string) "same winner everywhere" c0 c1;
  Alcotest.(check bool) "winner is one of the writes" true
    (List.mem c0 [ "from-zero"; "from-one" ]);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "host%d: nothing pending" i)
        0
        (pending_count (phys cluster vref i)))
    [ 0; 1 ];
  Alcotest.(check string) "digests agree" (digest_of cluster vref 0)
    (digest_of cluster vref 1)

let test_resolver_lww () =
  check_lww_settled (concurrent_write_cluster ~resolver:Resolver.Lww ())

let test_resolver_survives_reboot () =
  check_lww_settled (concurrent_write_cluster ~reboot:true ~resolver:Resolver.Lww ())

let test_resolver_app_merge () =
  let merge a b = a ^ "+" ^ b in
  let cluster, vref = concurrent_write_cluster ~resolver:(Resolver.App_merge merge) () in
  let c0 = read_file (ok (Cluster.logical_root cluster 0 vref)) "f" in
  let c1 = read_file (ok (Cluster.logical_root cluster 1 vref)) "f" in
  Alcotest.(check string) "same merged contents" c0 c1;
  Alcotest.(check bool) "merge combined both versions" true
    (String.length c0 > String.length "from-zero");
  List.iter
    (fun i -> Alcotest.(check int) "nothing pending" 0 (pending_count (phys cluster vref i)))
    [ 0; 1 ]

let test_resolver_owner_report_round_trip () =
  (* Default resolver: the conflict stays in the log as a multi-value
     register until the owner picks; resolving at one replica then
     converging clears everyone. *)
  let cluster, vref = concurrent_write_cluster ~resolver:Resolver.Owner_report () in
  let p0 = phys cluster vref 0 in
  let regs = Crdt_merge.pending_registers p0 in
  Alcotest.(check int) "one pending register" 1 (List.length regs);
  let r = List.hd regs in
  Alcotest.(check int) "both versions in the register" 2
    (Mv_register.cardinal r.Crdt_merge.p_register);
  let entry = List.hd (Conflict_log.pending (Physical.conflicts p0)) in
  ok (Reconcile.resolve_file_conflict ~local:p0 entry ~keep:`Remote);
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:40 ()) in
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "host%d: log drained" i)
        0
        (pending_count (phys cluster vref i)))
    [ 0; 1 ];
  Alcotest.(check string) "resolution propagated" (digest_of cluster vref 0)
    (digest_of cluster vref 1)

(* ------------------------------------------------------------------ *)
(* Crash durability: a reboot in the middle of the merge must replay    *)
(* to the same tree.                                                   *)

let test_crash_mid_merge () =
  let cluster = Cluster.create ~nhosts:2 ~dir_merge:`Crdt ~resolver:Resolver.Lww () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (Namei.mkdir_p ~root:root0 "a/inner") in
  let _ = ok (Namei.mkdir_p ~root:root0 "b") in
  create_file root0 "a/inner/keep" "payload";
  create_file root0 "f" "base";
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  let b0 = ok (root0.Vnode.lookup "b") in
  ok (root0.Vnode.rename "a" b0 "x");
  write_file root0 "f" "from-zero";
  let a1 = ok (root1.Vnode.lookup "a") in
  ok (root1.Vnode.rename "b" a1 "y");
  write_file root1 "f" "from-one";
  Cluster.heal cluster;
  (* One direction only: host0 pulls from host1 and repairs, host1 has
     seen nothing yet — mid-merge. *)
  let remote_root =
    ok ((Cluster.connect_from cluster 0) ~host:(Cluster.host_name (Cluster.host cluster 1))
          ~vref ~rid:2)
  in
  let (_ : Reconcile.stats) =
    ok
      (Reconcile.reconcile_volume
         ~local:(phys cluster vref 0)
         ~remote_root ~remote_rid:2 ())
  in
  (* Crash host0: repair decisions must have been durable. *)
  ok (Cluster.reboot cluster 0);
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:40 ()) in
  check_clean_tree cluster vref 0;
  check_clean_tree cluster vref 1;
  Alcotest.(check string) "same tree after crash replay" (digest_of cluster vref 0)
    (digest_of cluster vref 1);
  List.iter
    (fun i ->
      Alcotest.(check bool) "payload survived" true
        (List.mem "payload" (replica_contents (phys cluster vref i))))
    [ 0; 1 ];
  (* The concurrent writes to "f" were settled by the cluster's Lww
     resolver, which the reboot must have re-applied to host0's fresh
     replica. *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "host%d has no pending conflict" i)
        0
        (pending_count (phys cluster vref i)))
    [ 0; 1 ]

(* ------------------------------------------------------------------ *)
(* Convergence law (qcheck): any op interleaving, any partition         *)
(* schedule -> one tree.                                               *)

type cop =
  | Mkdir of int
  | Write of int * int
  | Nested of int * int * int  (* dir, file, payload *)
  | Remove of int
  | Move of int * int  (* rename d<i> into d<j> *)

let cop_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Mkdir d) (int_bound 2));
        (3, map2 (fun f p -> Write (f, p)) (int_bound 2) (int_bound 9));
        (2, map3 (fun d f p -> Nested (d, f, p)) (int_bound 2) (int_bound 1) (int_bound 9));
        (2, map (fun f -> Remove f) (int_bound 2));
        (4, map2 (fun a b -> Move (a, b)) (int_bound 2) (int_bound 2));
      ])

let print_cop = function
  | Mkdir d -> Printf.sprintf "mkdir d%d" d
  | Write (f, p) -> Printf.sprintf "w f%d %d" f p
  | Nested (d, f, p) -> Printf.sprintf "w d%d/n%d %d" d f p
  | Remove f -> Printf.sprintf "rm f%d" f
  | Move (a, b) -> Printf.sprintf "mv d%d d%d" a b

(* Ops are best-effort: a schedule may ask for a rename of a directory
   the previous epoch removed — that simply fails at the vnode layer. *)
let apply_cop ?(prefix = "") root op =
  let dname d = Printf.sprintf "%sd%d" prefix d in
  let fname f = Printf.sprintf "%sf%d" prefix f in
  let ignore_err : 'a. ('a, Errno.t) result -> unit = fun _ -> () in
  match op with
  | Mkdir d -> ignore_err (root.Vnode.mkdir (dname d))
  | Write (f, p) ->
    let data = Printf.sprintf "%s:%d" (fname f) p in
    (match root.Vnode.lookup (fname f) with
     | Ok v -> ignore_err (Vnode.write_all v data)
     | Error Errno.ENOENT ->
       (match root.Vnode.create (fname f) with
        | Ok v -> ignore_err (Vnode.write_all v data)
        | Error _ -> ())
     | Error _ -> ())
  | Nested (d, f, p) ->
    (match root.Vnode.lookup (dname d) with
     | Ok dir ->
       let n = Printf.sprintf "n%d" f in
       (match dir.Vnode.lookup n with
        | Ok v -> ignore_err (Vnode.write_all v (Printf.sprintf "%d" p))
        | Error Errno.ENOENT ->
          (match dir.Vnode.create n with
           | Ok v -> ignore_err (Vnode.write_all v (Printf.sprintf "%d" p))
           | Error _ -> ())
        | Error _ -> ())
     | Error _ -> ())
  | Remove f -> ignore_err (root.Vnode.remove (fname f))
  | Move (a, b) ->
    if a <> b then
      match root.Vnode.lookup (dname b) with
      | Ok target ->
        ignore_err (root.Vnode.rename (dname a) target (Printf.sprintf "%sm%d" prefix a))
      | Error _ -> ()

let crdt_arb =
  QCheck.make
    ~print:(fun epochs ->
      String.concat " | "
        (List.map
           (fun (h0, h1) ->
             Printf.sprintf "h0[%s] h1[%s]"
               (String.concat ";" (List.map print_cop h0))
               (String.concat ";" (List.map print_cop h1)))
           epochs))
    QCheck.Gen.(
      list_size (1 -- 2)
        (pair (list_size (int_bound 4) cop_gen) (list_size (int_bound 4) cop_gen)))

let run_epochs ~dir_merge ~resolver ?prefix epochs =
  let cluster = Cluster.create ~nhosts:2 ~dir_merge ~resolver () in
  match Cluster.create_volume cluster ~on:[ 0; 1 ] with
  | Error _ -> None
  | Ok vref ->
    (* Seed the directories so first-epoch moves have targets. *)
    (match Cluster.logical_root cluster 0 vref with
     | Error _ -> ()
     | Ok root0 ->
       List.iter (fun op -> apply_cop ?prefix root0 op) [ Mkdir 0; Mkdir 1; Mkdir 2 ];
       (match prefix with
        | None -> ()
        | Some _ ->
          (* Oracle runs: host1's namespace is seeded too. *)
          List.iter
            (fun op -> apply_cop ~prefix:"h1" root0 op)
            [ Mkdir 0; Mkdir 1; Mkdir 2 ]));
    let (_ : int) = Cluster.run_propagation cluster in
    (match Cluster.converge cluster vref () with
     | Error _ -> None
     | Ok _ ->
       let converged =
         List.for_all
           (fun (h0, h1) ->
             Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
             (match Cluster.logical_root cluster 0 vref with
              | Ok r -> List.iter (fun op -> apply_cop ?prefix r op) h0
              | Error _ -> ());
             (match Cluster.logical_root cluster 1 vref with
              | Ok r ->
                let prefix = Option.map (fun _ -> "h1") prefix in
                List.iter (fun op -> apply_cop ?prefix r op) h1
              | Error _ -> ());
             Cluster.heal cluster;
             match Cluster.converge cluster vref ~max_rounds:60 () with
             | Ok _ -> true
             | Error e ->
               Printf.eprintf "[crdt-prop] converge failed: %s\n%!" (Errno.to_string e);
               false)
           epochs
       in
       if not converged then None
       else
         Some
           ( digest_of cluster vref 0,
             digest_of cluster vref 1,
             stats_of cluster vref 0,
             stats_of cluster vref 1 ))

(* Once a qcheck counterexample: both hosts concurrently rename d1 into
   d2 (same target name, same fid, different births), while a file lands
   inside d1 just before the move.  Exposed two storage bugs — the
   Unmaterialize of the losing birth must not touch storage the winning
   birth still references, and pending summary events must be flushed
   before a directory move re-keys their fidpaths. *)
let test_concurrent_identical_moves () =
  let epochs =
    [
      ([ Remove 0; Nested (1, 0, 3); Move (1, 2) ], [ Move (0, 2); Move (1, 2) ]);
      ( [ Mkdir 2; Nested (2, 0, 4); Move (2, 2); Write (0, 9) ],
        [ Write (0, 9); Write (1, 0) ] );
    ]
  in
  let cluster = Cluster.create ~nhosts:2 ~dir_merge:`Crdt ~resolver:Resolver.Lww () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  List.iter (fun op -> apply_cop root0 op) [ Mkdir 0; Mkdir 1; Mkdir 2 ];
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  List.iter
    (fun (h0, h1) ->
      Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
      let r0 = ok (Cluster.logical_root cluster 0 vref) in
      List.iter (fun op -> apply_cop r0 op) h0;
      let r1 = ok (Cluster.logical_root cluster 1 vref) in
      List.iter (fun op -> apply_cop r1 op) h1;
      Cluster.heal cluster;
      let (_ : int) = ok ~msg:"converge" (Cluster.converge cluster vref ~max_rounds:60 ()) in
      ())
    epochs;
  check_clean_tree cluster vref 0;
  check_clean_tree cluster vref 1;
  Alcotest.(check string) "digests" (digest_of cluster vref 0) (digest_of cluster vref 1);
  (* The file written into d1 right before the move survived the
     concurrent double-rename on both replicas. *)
  List.iter
    (fun i ->
      Alcotest.(check bool) "n0 content present" true
        (List.mem "3" (replica_contents (phys cluster vref i))))
    [ 0; 1 ]

let prop name ?(count = 20) arb f = QCheck.Test.make ~name ~count arb f

let convergence_props =
  [
    prop "crdt: partitioned schedules converge to one clean tree" crdt_arb
      (fun epochs ->
        match run_epochs ~dir_merge:`Crdt ~resolver:Resolver.Lww epochs with
        | None -> false
        | Some (d0, d1, s0, s1) ->
          d0 = d1
          && s0.Crdt_merge.ts_unreachable_dirs = 0
          && s1.Crdt_merge.ts_unreachable_dirs = 0
          && s0.Crdt_merge.ts_cycles = 0
          && s1.Crdt_merge.ts_cycles = 0);
    prop "crdt equals legacy on conflict-free schedules" ~count:15 crdt_arb
      (fun epochs ->
        (* Hosts work in disjoint namespaces ("h0"/"h1" prefixes), so
           the schedule is conflict-free and the legacy merge is an
           exact oracle for the CRDT one. *)
        let run dm = run_epochs ~dir_merge:dm ~resolver:Resolver.Owner_report ~prefix:"h0" epochs in
        match (run `Legacy, run `Crdt) with
        | Some (l0, l1, _, _), Some (c0, c1, _, _) ->
          l0 = l1 && c0 = c1 && l0 = c0
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    case "tree: orphan attaches to the orphanage" test_tree_orphan_attach;
    case "tree: multi-parent picks the later birth" test_tree_multi_parent_demote;
    case "tree: orphanage links never oscillate" test_tree_orphanage_link_priority;
    case "tree: cycles cut at the smallest fid" test_tree_cycle_cut_at_min_fid;
    case "tree: decisions ignore presentation order" test_tree_resolve_order_independent;
    case "mv: antichain drops dominated versions" test_mv_antichain;
    case "mv: join is order independent" test_mv_order_independence;
    case "mv: lww winner is deterministic" test_mv_lww_winner;
    case "mv: app merge folds in canonical order" test_mv_merge_all;
    case "cross-rename cycle repairs under crdt" test_cycle_repair_crdt;
    case "cross-rename cycle is reported under legacy" test_cycle_not_silent_legacy;
    case "lww resolver converges concurrent writes" test_resolver_lww;
    case "lww resolver survives a reboot of both hosts" test_resolver_survives_reboot;
    case "app-merge resolver combines both versions" test_resolver_app_merge;
    case "owner-report keeps the register until resolved" test_resolver_owner_report_round_trip;
    case "crash mid-merge replays to the same tree" test_crash_mid_merge;
    case "concurrent identical moves keep contents" test_concurrent_identical_moves;
  ]
  @ List.map QCheck_alcotest.to_alcotest convergence_props
