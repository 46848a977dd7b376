(* The reconciliation protocol: subtree walks, delete/update conflicts,
   orphan preservation, tombstone GC end-to-end. *)

open Util

let test_subtree_reconciles_nested_changes () =
  let cluster = Cluster.create ~nhosts:2 () in
  Cluster.set_faults cluster { Sim_net.no_faults with loss = 1.0 };
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (Namei.mkdir_p ~root:root0 "a/b") in
  create_file root0 "a/b/deep" "nested";
  create_file root0 "top" "shallow";
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  Alcotest.(check string) "deep file" "nested" (read_file root1 "a/b/deep");
  Alcotest.(check string) "top file" "shallow" (read_file root1 "top")

let test_delete_update_conflict_orphans_contents () =
  (* One partition removes a directory; the other adds to it.  The
     tombstone wins, but the new content is preserved in the orphanage
     and the conflict reported. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let _ = ok (root0.Vnode.mkdir "shared") in
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  create_file root1 "shared/precious" "do not lose me";
  ok (root0.Vnode.rmdir "shared");
  Cluster.heal cluster;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  (* The directory is gone everywhere... *)
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (root1.Vnode.lookup "shared"));
  (* ...but host1 preserved the contents and reported the conflict. *)
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let orphaned =
    List.exists
      (fun e ->
        match e.Conflict_log.detail with
        | Conflict_log.Removed_while_updated _ -> true
        | _ -> false)
      (Conflict_log.all (Physical.conflicts phys1))
  in
  Alcotest.(check bool) "orphan conflict reported" true orphaned

let test_rename_rename_conflict_keeps_both_names () =
  (* The same directory renamed differently in two partitions: after
     reconciliation the directory has both names (paper §2.5 fn.3). *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let s = Schedule.start cluster vref in
  ok
    (Schedule.run s
       [
         Mkdir (0, "original"); Create (0, "original/inside", "kept"); Propagate; Converge 10;
         Partition [ [ 0 ]; [ 1 ] ];
         Rename (0, "original", "name-at-0"); Rename (1, "original", "name-at-1");
         Heal; Converge 20;
       ]);
  let root0 = ok (Schedule.root s 0) and root1 = ok (Schedule.root s 1) in
  let names root =
    ok (root.Vnode.readdir ()) |> List.map (fun e -> e.Vnode.entry_name) |> List.sort compare
  in
  let n0 = names root0 and n1 = names root1 in
  Alcotest.(check (list string)) "same view everywhere" n0 n1;
  Alcotest.(check (list string)) "both names retained" [ "name-at-0"; "name-at-1" ] n0;
  (* Both names reach the same directory contents. *)
  Alcotest.(check string) "via name-at-0" "kept" (read_file root0 "name-at-0/inside");
  Alcotest.(check string) "via name-at-1" "kept" (read_file root0 "name-at-1/inside")

let test_tombstones_gced_after_full_rounds () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  ok
    (Schedule.run (Schedule.start cluster vref)
       [ Create (0, "doomed", "x"); Propagate; Converge 10; Remove (0, "doomed"); Converge 20 ]);
  (* After enough rounds, no tombstone remains on either replica. *)
  List.iter
    (fun i ->
      let phys = Option.get (Cluster.replica (Cluster.host cluster i) vref) in
      let fdir = ok (Physical.fetch_dir phys []) in
      Alcotest.(check int)
        (Printf.sprintf "no tombstones at host%d" i)
        0
        (List.length (Fdir.entries fdir)))
    [ 0; 1 ]

let test_no_lost_updates_under_churn () =
  (* Interleave updates, partitions and reconciliations; at the end every
     surviving file's latest write must be present somewhere and, after
     convergence, everywhere. *)
  let cluster = Cluster.create ~nhosts:3 () in
  let hosts = [ 0; 1; 2 ] in
  let vref = ok (Cluster.create_volume cluster ~on:hosts) in
  let s = Schedule.start cluster vref in
  let file i = Printf.sprintf "file%d" i in
  (* Disjoint updates in a 3-way partition (different files per host, so
     no conflicts). *)
  ok
    (Schedule.run s
       Schedule.(
         List.map (fun i -> Create (0, file i, "init")) hosts
         @ [ Propagate; Converge 10; Partition [ [ 0 ]; [ 1 ]; [ 2 ] ] ]
         @ List.map (fun i -> Write (i, file i, Printf.sprintf "by%d" i)) hosts
         @ [ Heal; Converge 20 ]));
  let roots = List.map (fun i -> ok (Schedule.root s i)) hosts in
  List.iteri
    (fun reader root ->
      List.iteri
        (fun i _ ->
          Alcotest.(check string)
            (Printf.sprintf "host%d sees file%d" reader i)
            (Printf.sprintf "by%d" i)
            (read_file root (Printf.sprintf "file%d" i)))
        roots)
    roots

let test_resolve_conflict_invalid_kind_rejected () =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) vref) in
  let entry =
    Conflict_log.report (Physical.conflicts phys0) ~vref ~fidpath:[] ~fid:Ids.root_fid
      ~owner_uid:0 ~detected_at:0
      (Conflict_log.Name_collision { name = "x"; births = [] })
  in
  expect_err Errno.EINVAL (Reconcile.resolve_file_conflict ~local:phys0 entry ~keep:`Local)

let test_conflict_superseded_everywhere_after_resolution () =
  (* Resolving a conflict at one replica must clear the pending report at
     the other replica too, once the dominating resolution propagates. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let s = Schedule.start cluster vref in
  ok
    (Schedule.run s
       [
         Create (0, "doc", "base"); Propagate; Partition [ [ 0 ]; [ 1 ] ];
         Write (0, "doc", "A"); Write (1, "doc", "B"); Heal;
       ]);
  let root1 = ok (Schedule.root s 1) in
  let (_ : Reconcile.stats) = ok (Cluster.reconcile_ring cluster vref) in
  let phys i = Option.get (Cluster.replica (Cluster.host cluster i) vref) in
  let pending i = List.length (Conflict_log.pending (Physical.conflicts (phys i))) in
  Alcotest.(check bool) "both sides reported" true (pending 0 = 1 && pending 1 = 1);
  (* Resolve at host0; converge; host1's report must close by itself. *)
  let entry = List.hd (Conflict_log.pending (Physical.conflicts (phys 0))) in
  ok (Reconcile.resolve_file_conflict ~local:(phys 0) entry ~keep:(`Merged "AB"));
  let (_ : int) = Cluster.run_propagation cluster in
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  Alcotest.(check int) "host0 clear" 0 (pending 0);
  Alcotest.(check int) "host1 superseded" 0 (pending 1);
  Alcotest.(check string) "content everywhere" "AB" (read_file root1 "doc")

(* ---------------- peers whose replies are rewritten ---------------- *)

let ( let* ) = Result.bind

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let reply_vnode body =
  {
    (Vnode.not_supported Vnode.No_data) with
    Vnode.getattr =
      (fun () ->
        Ok
          {
            Vnode.kind = Vnode.VCTL;
            size = String.length body;
            nlink = 1;
            mtime = 0;
            mode = 0o400;
            uid = 0;
            gen = 0;
          });
    read = (fun ~off ~len -> Ok (String.sub body off (min len (String.length body - off))));
  }

(* [real] with the replies to control ops named [op] rewritten by [f]. *)
let rewriting_root real op f =
  {
    real with
    Vnode.lookup =
      (fun name ->
        let* v = real.Vnode.lookup name in
        if not (contains name op) then Ok v
        else
          let* body = Vnode.read_all v in
          let* body = f body in
          Ok (reply_vnode body));
  }

(* A converged file "f" then updated at host0 below the daemons: no
   notification reaches host1, so only reconciliation can carry it.
   Converging leaves host1 with a walked pass against host0, so its
   next request carries a floor; a rebooted host1 sends none. *)
let stale_file_at_host1 ~floor =
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  create_file (ok (Cluster.logical_root cluster 0 vref)) "f" "first";
  let (_ : int) = ok (Cluster.converge cluster vref ()) in
  if not floor then ok (Cluster.reboot cluster 1);
  let phys i = Option.get (Cluster.replica (Cluster.host cluster i) vref) in
  ok (Vnode.write_all (ok ((Physical.root (phys 0)).Vnode.lookup "f")) "second");
  let remote_root = ok ((Cluster.connect_from cluster 1) ~host:"host0" ~vref ~rid:1) in
  let fid = (Option.get (Fdir.find_live (ok (Physical.fetch_dir (phys 0) [])) "f")).Fdir.fid in
  (phys 0, phys 1, remote_root, fid)

(* A getdirvvs reply without [fid]'s child block, as a server sends when
   that child's version info fails: a filtered reply also lists it.
   [filtered] records whether the reply was. *)
let omit_child filtered fid body =
  let* dv = Ctl_wire.decode_dir_versions body in
  filtered := dv.Ctl_wire.dv_filtered <> None;
  Ok
    (Ctl_wire.encode_dir_versions ~summary:dv.Ctl_wire.dv_summary
       ~filtered:(Option.map (fun failed -> fid :: failed) dv.Ctl_wire.dv_filtered)
       ~fdir:(Fdir.encode dv.Ctl_wire.dv_fdir)
       (List.filter (fun (g, _) -> not (Ids.fid_equal g fid)) dv.Ctl_wire.dv_children))

let check_converged phys0 phys1 fid =
  let vi p = ok (Physical.get_version p [ fid ]) in
  Alcotest.check vv_testable "host1 holds host0's version" (vi phys0).Physical.vi_vv
    (vi phys1).Physical.vi_vv;
  Alcotest.(check string) "same tree" (ok (Crdt_merge.digest phys0)) (ok (Crdt_merge.digest phys1))

let test_omitted_child_takes_per_child_path () =
  List.iter
    (fun floor ->
      let phys0, phys1, remote_root, fid = stale_file_at_host1 ~floor in
      let pass root =
        let (_ : Reconcile.stats) =
          ok (Reconcile.reconcile_volume ~local:phys1 ~remote_root:root ~remote_rid:1 ())
        in
        ()
      in
      let filtered = ref (not floor) in
      pass (rewriting_root remote_root "getdirvvs" (omit_child filtered fid));
      Alcotest.(check bool) "the reply is filtered iff a floor went" floor !filtered;
      for _ = 1 to 3 do pass remote_root done;
      check_converged phys0 phys1 fid)
    [ true; false ]

let test_failed_omitted_child_leaves_walk_incomplete () =
  (* The per-child fetch fails too: the pass must not join the peer's
     summary, so the next pass walks to the file instead of pruning. *)
  List.iter
    (fun floor ->
      let phys0, phys1, remote_root, fid = stale_file_at_host1 ~floor in
      let broken =
        rewriting_root
          (rewriting_root remote_root "getdirvvs" (omit_child (ref false) fid))
          "getvv"
          (fun _ -> Error Errno.EIO)
      in
      let s = ok (Reconcile.reconcile_volume ~local:phys1 ~remote_root:broken ~remote_rid:1 ()) in
      Alcotest.(check int) "the failure is counted" 1 s.Reconcile.errors;
      let s = ok (Reconcile.reconcile_volume ~local:phys1 ~remote_root ~remote_rid:1 ()) in
      Alcotest.(check int) "the next pass does not prune" 0 s.Reconcile.subtrees_pruned;
      check_converged phys0 phys1 fid)
    [ true; false ]

(* ---------------- floors: answers proportional to the change ---------------- *)

let phys cluster vref i = Option.get (Cluster.replica (Cluster.host cluster i) vref)

(* Child blocks host0 serves during [f ()]. *)
let children_served cluster vref f =
  let counters = Physical.counters (phys cluster vref 0) in
  let before = Counters.get counters "phys.ctl.getdirvvs.children" in
  let r = f () in
  (r, Counters.get counters "phys.ctl.getdirvvs.children" - before)

(* One pass host1 <- host0. *)
let pull_from_host0 cluster vref =
  let remote_root = ok ((Cluster.connect_from cluster 1) ~host:"host0" ~vref ~rid:1) in
  ok (Reconcile.reconcile_volume ~local:(phys cluster vref 1) ~remote_root ~remote_rid:1 ())

(* A converged volume whose root holds [n] files written at host0's
   physical layer, below the daemons. *)
let converged_files n =
  let cluster = Cluster.create ~nhosts:2 ~disk_blocks:16384 ~ninodes:4096 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root = Physical.root (phys cluster vref 0) in
  for i = 1 to n do
    ok (Vnode.write_all (ok (root.Vnode.create (Printf.sprintf "f%04d" i))) "x")
  done;
  let (_ : int) = ok (Cluster.converge cluster vref ~max_rounds:20 ()) in
  (cluster, vref)

let write_at_host0 cluster vref name data =
  let root = Physical.root (phys cluster vref 0) in
  ok (Vnode.write_all (ok (root.Vnode.lookup name)) data)

let test_one_write_one_block () =
  let cluster, vref = converged_files 1024 in
  write_at_host0 cluster vref "f0513" "changed";
  let s, served = children_served cluster vref (fun () -> pull_from_host0 cluster vref) in
  Alcotest.(check int) "one child block for one changed file" 1 served;
  Alcotest.(check int) "the file is pulled" 1 s.Reconcile.files_pulled;
  let f = Option.get (Fdir.find_live (ok (Physical.fetch_dir (phys cluster vref 0) [])) "f0513") in
  check_converged (phys cluster vref 0) (phys cluster vref 1) f.Fdir.fid

let test_server_reboot_answers_in_full () =
  (* Host1's floor predates host0's reboot, so it is below host0's attach
     point: the index never saw the events before it, and the answer is
     whole.  Once host1 joins a summary from after the reboot, its floor
     filters again. *)
  let cluster, vref = converged_files 8 in
  ok (Cluster.reboot cluster 0);
  write_at_host0 cluster vref "f0003" "after reboot";
  let s, served = children_served cluster vref (fun () -> pull_from_host0 cluster vref) in
  Alcotest.(check int) "every child answered" 8 served;
  Alcotest.(check int) "the file is pulled" 1 s.Reconcile.files_pulled;
  write_at_host0 cluster vref "f0005" "again";
  let s, served = children_served cluster vref (fun () -> pull_from_host0 cluster vref) in
  Alcotest.(check int) "filtered again" 1 served;
  Alcotest.(check int) "that file is pulled" 1 s.Reconcile.files_pulled

let test_puller_reboot_rereports_conflict () =
  (* The conflict log is volatile.  After host1 reboots, its first pass
     against host0 sends no floor, so the conflicted file's block comes
     back and the conflict is reported again — a floor would cover it. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let s = Schedule.start cluster vref in
  ok
    (Schedule.run s
       [
         Create (0, "doc", "base"); Propagate; Converge 10; Partition [ [ 0 ]; [ 1 ] ];
         Write (0, "doc", "A"); Write (1, "doc", "B"); Heal;
       ]);
  let (_ : Reconcile.stats) = ok (Cluster.reconcile_ring cluster vref) in
  let (_ : Reconcile.stats) = ok (Cluster.reconcile_ring cluster vref) in
  let pending () = List.length (Conflict_log.pending (Physical.conflicts (phys cluster vref 1))) in
  Alcotest.(check int) "reported before the reboot" 1 (pending ());
  ok (Cluster.reboot cluster 1);
  Alcotest.(check int) "lost with the reboot" 0 (pending ());
  (* Something else changes at host0, so the pass walks. *)
  ok (Vnode.write_all (ok ((Physical.root (phys cluster vref 0)).Vnode.create "other")) "x");
  let st, served = children_served cluster vref (fun () -> pull_from_host0 cluster vref) in
  Alcotest.(check int) "both children answered" 2 served;
  Alcotest.(check int) "the conflict is met" 1 st.Reconcile.files_conflicted;
  Alcotest.(check int) "and reported again" 1 (pending ())

let test_moved_directory_is_walked () =
  (* A directory moved across directories at host0 stamps both ends, so
     host1's next pass (floors on) walks it at its new place. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let s = Schedule.start cluster vref in
  ok
    (Schedule.run s
       [
         Mkdir (0, "a"); Mkdir (0, "b"); Mkdir (0, "a/sub"); Create (0, "a/sub/f", "inside");
         Propagate; Converge 10;
       ]);
  let root0 = Physical.root (phys cluster vref 0) in
  let a = ok (root0.Vnode.lookup "a") and b = ok (root0.Vnode.lookup "b") in
  ok (a.Vnode.rename "sub" b "sub");
  let (_ : Reconcile.stats) = pull_from_host0 cluster vref in
  let root1 = Physical.root (phys cluster vref 1) in
  Alcotest.(check string) "the file at the new place" "inside" (read_file root1 "b/sub/f");
  expect_err Errno.ENOENT (Result.map ignore (Namei.walk ~root:root1 "a/sub"));
  Alcotest.(check string) "same tree"
    (ok (Crdt_merge.digest (phys cluster vref 0)))
    (ok (Crdt_merge.digest (phys cluster vref 1)))

let suite =
  [
    case "omitted getdirvvs child takes the per-child path"
      test_omitted_child_takes_per_child_path;
    case "failed omitted child leaves the walk incomplete"
      test_failed_omitted_child_leaves_walk_incomplete;
    case "floor: one write in a 1024-entry directory answers one child"
      test_one_write_one_block;
    case "floor: below the server's attach point gets a full answer"
      test_server_reboot_answers_in_full;
    case "floor: a rebooted puller reports a pending conflict again"
      test_puller_reboot_rereports_conflict;
    case "floor: a directory moved across directories is walked" test_moved_directory_is_walked;
    case "subtree reconciles nested changes" test_subtree_reconciles_nested_changes;
    case "conflict superseded everywhere after resolution"
      test_conflict_superseded_everywhere_after_resolution;
    case "delete/update conflict preserves orphans"
      test_delete_update_conflict_orphans_contents;
    case "rename/rename keeps both names" test_rename_rename_conflict_keeps_both_names;
    case "tombstones GCed after full rounds" test_tombstones_gced_after_full_rounds;
    case "no lost updates under churn" test_no_lost_updates_under_churn;
    case "resolve rejects non-file conflicts" test_resolve_conflict_invalid_kind_rejected;
  ]
