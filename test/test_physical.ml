(* The physical layer in isolation: on-disk layout, the dual name/handle
   mapping, control lookups, version bookkeeping, shadow installs,
   graft points. *)

open Util
module Vv = Version_vector

let fresh_phys ?(rid = 1) ?(peers = [ (1, "hostA"); (2, "hostB") ]) () =
  let _, fs = fresh_ufs () in
  let clock = Clock.create () in
  let container = ok (Namei.mkdir_p ~root:(Ufs_vnode.root fs) "vol") in
  let vref = { Ids.alloc = 0; vol = 1 } in
  let phys = ok (Physical.create ~obs:(Obs.create ()) ~container ~clock ~host:"hostA" ~vref ~rid ~peers ()) in
  (fs, clock, container, phys)

let test_create_layout () =
  let fs, _, container, phys = fresh_phys () in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "file") in
  ok (f.Vnode.write ~off:0 "data");
  (* The on-disk layout: container/<hexroot>/{DIR, <hexfid>, <hexfid>.aux} *)
  let root_ufs = ok (container.Vnode.lookup (Ids.fid_to_hex Ids.root_fid)) in
  let names =
    ok (root_ufs.Vnode.readdir ()) |> List.map (fun e -> e.Vnode.entry_name) |> List.sort compare
  in
  Alcotest.(check int) "DIR + data + aux" 3 (List.length names);
  Alcotest.(check bool) "has DIR" true (List.mem "DIR" names);
  Alcotest.(check bool) "has aux" true
    (List.exists (fun n -> Filename.check_suffix n ".aux") names);
  ignore fs

let test_dual_mapping_at_names () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let _ = ok (root.Vnode.create "named") in
  let fdir = ok (Physical.fetch_dir phys []) in
  let e = Option.get (Fdir.find_live fdir "named") in
  (* Lookup by handle resolves to the same object as lookup by name. *)
  let via_handle = ok (root.Vnode.lookup (Ids.fid_to_at_name e.Fdir.fid)) in
  ok (via_handle.Vnode.write ~off:0 "through the handle");
  let via_name = ok (root.Vnode.lookup "named") in
  Alcotest.(check string) "same file" "through the handle" (ok (Vnode.read_all via_name))

let test_write_bumps_version_vector () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "f") in
  let fdir = ok (Physical.fetch_dir phys []) in
  let e = Option.get (Fdir.find_live fdir "f") in
  let vi0 = ok (Physical.get_version phys [ e.Fdir.fid ]) in
  Alcotest.(check int) "creation counts once" 1 (Vv.get vi0.Physical.vi_vv 1);
  ok (f.Vnode.write ~off:0 "x");
  ok (f.Vnode.write ~off:1 "y");
  let vi = ok (Physical.get_version phys [ e.Fdir.fid ]) in
  Alcotest.(check int) "two more updates" 3 (Vv.get vi.Physical.vi_vv 1)

let test_dir_updates_bump_dir_vv () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let vv0 = Fdir.vv (ok (Physical.fetch_dir phys [])) in
  let _ = ok (root.Vnode.create "a") in
  ok (root.Vnode.remove "a");
  let vv1 = Fdir.vv (ok (Physical.fetch_dir phys [])) in
  Alcotest.(check int) "two directory updates" (Vv.get vv0 1 + 2) (Vv.get vv1 1)

let test_notifications_emitted () =
  let _, _, _, phys = fresh_phys () in
  let events = ref [] in
  Physical.set_notifier phys (fun ev -> events := ev :: !events);
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "x");
  let kinds = List.rev_map (fun e -> e.Notify.kind) !events in
  Alcotest.(check int) "two events" 2 (List.length kinds);
  Alcotest.(check bool) "dir event for create" true (List.mem Aux_attrs.Fdir kinds);
  Alcotest.(check bool) "file event for write" true (List.mem Aux_attrs.Freg kinds)

let test_install_file_outcomes () =
  let remote = Chunking.Content.make in
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "local v1");
  let fdir = ok (Physical.fetch_dir phys []) in
  let e = Option.get (Fdir.find_live fdir "f") in
  let path = [ e.Fdir.fid ] in
  let local_vv = (ok (Physical.get_version phys path)).Physical.vi_vv in
  (* Dominating remote version: installed. *)
  let newer = Vv.bump local_vv 2 in
  (match ok (Physical.install_file ~span:Span.none ~via:"prop" phys path ~vv:newer ~uid:0 ~data:(remote "remote v2") ~origin_rid:2) with
   | Physical.Installed -> ()
   | _ -> Alcotest.fail "expected Installed");
  Alcotest.(check string) "contents replaced" "remote v2" (ok (Vnode.read_all f));
  (* Same version again: up to date. *)
  (match ok (Physical.install_file ~span:Span.none ~via:"prop" phys path ~vv:newer ~uid:0 ~data:(remote "remote v2") ~origin_rid:2) with
   | Physical.Up_to_date -> ()
   | _ -> Alcotest.fail "expected Up_to_date");
  (* Concurrent: conflict, local kept, logged once. *)
  let concurrent = Vv.bump newer 3 in
  ok (Vnode.write_all f "local v3");
  (match
     ok (Physical.install_file ~span:Span.none ~via:"prop" phys path ~vv:concurrent ~uid:0 ~data:(remote "remote v3") ~origin_rid:3)
   with
   | Physical.Conflict _ -> ()
   | _ -> Alcotest.fail "expected Conflict");
  Alcotest.(check string) "local kept" "local v3" (ok (Vnode.read_all f));
  let (_ : Physical.install_outcome) =
    ok (Physical.install_file ~span:Span.none ~via:"prop" phys path ~vv:concurrent ~uid:0 ~data:(remote "remote v3") ~origin_rid:3)
  in
  Alcotest.(check int) "reported once" 1
    (List.length (Conflict_log.pending (Physical.conflicts phys)))

let test_remove_is_tombstone_not_forgetting () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let _ = ok (root.Vnode.create "f") in
  ok (root.Vnode.remove "f");
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (root.Vnode.lookup "f"));
  let fdir = ok (Physical.fetch_dir phys []) in
  Alcotest.(check int) "tombstone retained" 1 (List.length (Fdir.entries fdir))

let test_rename_within_and_across_dirs () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let d1 = ok (root.Vnode.mkdir "d1") in
  let d2 = ok (root.Vnode.mkdir "d2") in
  let f = ok (d1.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "content");
  ok (d1.Vnode.rename "f" d1 "f2");
  Alcotest.(check string) "in-dir rename" "content" (read_file root "d1/f2");
  ok (d1.Vnode.rename "f2" d2 "f3");
  Alcotest.(check string) "cross-dir rename" "content" (read_file root "d2/f3");
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (d1.Vnode.lookup "f2"));
  (* Version history survives the moves. *)
  let fdir2 = ok (Physical.fetch_dir phys []) in
  let d2e = Option.get (Fdir.find_live fdir2 "d2") in
  let sub = ok (Physical.fetch_dir phys [ d2e.Fdir.fid ]) in
  let fe = Option.get (Fdir.find_live sub "f3") in
  let vi = ok (Physical.get_version phys [ d2e.Fdir.fid; fe.Fdir.fid ]) in
  Alcotest.(check int) "vv moved along" 2 (Vv.get vi.Physical.vi_vv 1)

let test_rename_directory_across_dirs () =
  (* Moving a whole Ficus directory relocates its UFS subtree and keeps
     the namespace-parallel layout intact. *)
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let src = ok (root.Vnode.mkdir "src") in
  let dst = ok (root.Vnode.mkdir "dst") in
  let moving = ok (src.Vnode.mkdir "moving") in
  let f = ok (moving.Vnode.create "inner") in
  ok (Vnode.write_all f "survives the move");
  ok (src.Vnode.rename "moving" dst "moved");
  Alcotest.(check string) "contents follow" "survives the move"
    (read_file root "dst/moved/inner");
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (src.Vnode.lookup "moving"));
  (* The moved directory is still writable and versioned. *)
  let moved = ok (Namei.walk ~root "dst/moved") in
  let g = ok (moved.Vnode.create "fresh") in
  ok (Vnode.write_all g "new file after move");
  Alcotest.(check string) "post-move create" "new file after move"
    (read_file root "dst/moved/fresh")

let test_link_shares_storage_and_history () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "a") in
  ok (f.Vnode.write ~off:0 "one");
  let a = ok (root.Vnode.lookup "a") in
  ok (root.Vnode.link a "b");
  ok (a.Vnode.write ~off:0 "two");
  Alcotest.(check string) "visible via b" "two" (read_file root "b");
  (* Removing one name keeps the file alive under the other. *)
  ok (root.Vnode.remove "a");
  Alcotest.(check string) "b survives" "two" (read_file root "b")

let test_rmdir_requires_empty () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let d = ok (root.Vnode.mkdir "d") in
  let _ = ok (d.Vnode.create "f") in
  expect_err Errno.ENOTEMPTY (root.Vnode.rmdir "d");
  ok (d.Vnode.remove "f");
  ok (root.Vnode.rmdir "d");
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (root.Vnode.lookup "d"))

let test_ctl_open_close_counted () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let open_name = ok (Ctl_name.encode ~op:"open" ~args:[ "."; "rw" ]) in
  let close_name = ok (Ctl_name.encode ~op:"close" ~args:[ "." ]) in
  let resp = ok (root.Vnode.lookup open_name) in
  Alcotest.(check string) "ack" "ok\n" (ok (Vnode.read_all resp));
  Alcotest.(check int) "open seen" 1 (Physical.open_files phys);
  let _ = ok (root.Vnode.lookup close_name) in
  Alcotest.(check int) "closed" 0 (Physical.open_files phys);
  Alcotest.(check int) "counted via ctl" 1
    (Counters.get (Physical.counters phys) "phys.open.ctl")

let test_ctl_getvv_readfile_getdir () =
  let _, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "payload");
  (* Exercise the full remote path over the local vnode stack. *)
  let vi = ok (Remote.get_version ~obs:(Physical.obs phys) root []) in
  Alcotest.(check bool) "root is dir" true (vi.Physical.vi_kind = Aux_attrs.Fdir);
  let fdir, _ = ok (Remote.fetch_dir ~obs:(Physical.obs phys) root []) in
  let e = Option.get (Fdir.find_live fdir "f") in
  let vi, data, _ = ok (Remote.fetch_file ~obs:(Physical.obs phys) root [ e.Fdir.fid ]) in
  Alcotest.(check string) "contents" "payload" data;
  Alcotest.(check int) "vv" 2 (Vv.get vi.Physical.vi_vv 1);
  let fid, kind = ok (Remote.resolve ~obs:(Physical.obs phys) root "f") in
  Alcotest.(check bool) "resolve fid" true (Ids.fid_equal fid e.Fdir.fid);
  Alcotest.(check bool) "resolve kind" true (kind = Aux_attrs.Freg);
  let peers = ok (Remote.peers ~obs:(Physical.obs phys) root) in
  Alcotest.(check int) "peers" 2 (List.length peers);
  let vref, rid = ok (Remote.meta ~obs:(Physical.obs phys) root) in
  Alcotest.(check int) "rid" 1 rid;
  Alcotest.(check int) "vol" 1 vref.Ids.vol

let test_graft_point_roundtrip () =
  let _, _, _, phys = fresh_phys () in
  let target = { Ids.alloc = 0; vol = 9 } in
  ok
    (Physical.make_graft_point phys ~parent:[] ~name:"sub" ~target
       ~replicas:[ (1, "hostA"); (2, "hostB") ]);
  let root = Physical.root phys in
  let gp = ok (root.Vnode.lookup "sub") in
  let attrs = ok (gp.Vnode.getattr ()) in
  Alcotest.(check bool) "graft vtype" true (attrs.Vnode.kind = Vnode.VGRAFT);
  let fdir = ok (Physical.fetch_dir phys []) in
  let e = Option.get (Fdir.find_live fdir "sub") in
  let vref, replicas = ok (Physical.graft_point_info phys [ e.Fdir.fid ]) in
  Alcotest.(check int) "target vol" 9 vref.Ids.vol;
  Alcotest.(check int) "two replicas" 2 (List.length replicas);
  ok (Physical.add_graft_replica phys [ e.Fdir.fid ] 3 "hostC");
  let _, replicas = ok (Physical.graft_point_info phys [ e.Fdir.fid ]) in
  Alcotest.(check int) "three replicas" 3 (List.length replicas)

let test_attach_after_restart () =
  let fs, clock, container, phys = fresh_phys () in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "keep") in
  ok (f.Vnode.write ~off:0 "persisted");
  ignore fs;
  let phys2 = ok (Physical.attach ~obs:(Obs.create ()) ~container ~clock ~host:"hostA" ()) in
  Alcotest.(check int) "rid recovered" 1 (Physical.rid phys2);
  Alcotest.(check int) "peers recovered" 2 (List.length (Physical.peers phys2));
  let root2 = Physical.root phys2 in
  Alcotest.(check string) "data intact" "persisted" (read_file root2 "keep");
  (* The id allocator must not reissue: create another file and check
     fid uniqueness. *)
  let _ = ok (root2.Vnode.create "fresh") in
  let fdir = ok (Physical.fetch_dir phys2 []) in
  let fids = List.map (fun (_, e) -> Ids.fid_to_hex e.Fdir.fid) (Fdir.live fdir) in
  Alcotest.(check int) "unique fids" (List.length fids)
    (List.length (List.sort_uniq compare fids))

let test_recover_sweeps_shadows () =
  let _, _, container, phys = fresh_phys () in
  let root = Physical.root phys in
  let _ = ok (root.Vnode.create "f") in
  Alcotest.(check int) "nothing to sweep initially" 0 (ok (Physical.recover phys));
  (* Simulate an interrupted install: plant a leftover shadow file next
     to the real storage. *)
  let fdir = ok (Physical.fetch_dir phys []) in
  let e = Option.get (Fdir.find_live fdir "f") in
  let root_ufs = ok (container.Vnode.lookup (Ids.fid_to_hex Ids.root_fid)) in
  let shadow = ok (root_ufs.Vnode.create (Shadow.shadow_name e.Fdir.fid)) in
  ok (shadow.Vnode.write ~off:0 "partial garbage");
  Alcotest.(check int) "one shadow swept" 1 (ok (Physical.recover phys));
  expect_err Errno.ENOENT
    (Result.map (fun _ -> ()) (root_ufs.Vnode.lookup (Shadow.shadow_name e.Fdir.fid)))

let test_summary_tracks_mutations () =
  let _fs, _, _, phys = fresh_phys () in
  let root = Physical.root phys in
  let summary path =
    match (ok (Physical.get_version phys path)).Physical.vi_summary with
    | Some s -> s
    | None -> Alcotest.fail "directory carries no summary"
  in
  let s0 = summary [] in
  let d = ok (root.Vnode.mkdir "d") in
  let s1 = summary [] in
  Alcotest.(check bool) "root summary advances on mkdir" true
    (Vv.dominates s1 s0 && not (Vv.equal s1 s0));
  (* A write deep in the tree advances the enclosing directory's summary
     and every ancestor's, so a dominating root claim really covers the
     whole subtree. *)
  let f = ok (d.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "data");
  let e = Option.get (Fdir.find_live (ok (Physical.fetch_dir phys [])) "d") in
  let sd = summary [ e.Fdir.fid ] in
  let s2 = summary [] in
  Alcotest.(check bool) "child summary nonempty" true (not (Vv.equal sd Vv.empty));
  Alcotest.(check bool) "root covers the child" true (Vv.dominates s2 sd);
  Alcotest.(check bool) "root advanced past mkdir-time" true
    (Vv.dominates s2 s1 && not (Vv.equal s2 s1));
  (* Files never carry one. *)
  let vi = ok (Physical.get_version phys [ e.Fdir.fid; (Option.get (Fdir.find_live (ok (Physical.fetch_dir phys [ e.Fdir.fid ])) "f")).Fdir.fid ]) in
  Alcotest.(check bool) "files carry no summary" true (vi.Physical.vi_summary = None)

(* [merge_dir] notes a summary event exactly when the stored DIR bytes
   change: a repeated merge leaves both the served summary and the
   pending bumps alone, and a merge that moves only the known map (its
   [K] lines) notes one. *)
let test_merge_summary_event_iff_bytes_change () =
  let _, _, _, p1 = fresh_phys () in
  let _, _, _, p2 = fresh_phys ~rid:2 () in
  let _ = ok ((Physical.root p2).Vnode.create "g") in
  let remote = ok (Physical.fetch_dir p2 []) in
  let merge r = ignore (ok (Physical.merge_dir p1 [] ~remote_rid:2 r)) in
  let served () = Option.get (ok (Physical.get_version p1 [])).Physical.vi_summary in
  let stored () = Fdir.encode (ok (Physical.fetch_dir p1 [])) in
  let pending_flushed () = ok (Physical.flush_summaries p1) in
  merge remote;
  Alcotest.(check bool) "the first merge notes an event" true (pending_flushed () > 0);
  let summary = served () and bytes = stored () in
  merge remote;
  Alcotest.(check string) "same bytes" bytes (stored ());
  Alcotest.check vv_testable "served summary unchanged" summary (served ());
  Alcotest.(check int) "no pending bump" 0 (pending_flushed ());
  merge (Option.get (Fdir.decode (bytes ^ "K 3 1:1\n")));
  let lines s =
    List.filter (fun l -> not (String.starts_with ~prefix:"K " l)) (String.split_on_char '\n' s)
  in
  Alcotest.(check bool) "the known map moved" true (stored () <> bytes);
  Alcotest.(check (list string)) "and nothing else" (lines bytes) (lines (stored ()));
  Alcotest.(check bool) "served summary grew" true
    (Vv.dominates (served ()) summary && not (Vv.equal (served ()) summary));
  Alcotest.(check bool) "a pending bump" true (pending_flushed () > 0)

(* A merge that leaves the DIR bytes as they were writes nothing: not
   when the same remote directory comes again, and not when the remote
   one is the local one. *)
let test_merge_of_equal_dir_writes_nothing () =
  let fs, _, _, p1 = fresh_phys () in
  let _, _, _, p2 = fresh_phys ~rid:2 () in
  let _ = ok ((Physical.root p2).Vnode.create "g") in
  let remote = ok (Physical.fetch_dir p2 []) in
  let disk = Ufs.disk fs in
  let merge_writes r =
    let before = Disk.writes disk in
    ignore (ok (Physical.merge_dir p1 [] ~remote_rid:2 r));
    Disk.writes disk - before
  in
  Alcotest.(check bool) "the first merge writes" true (merge_writes remote > 0);
  Alcotest.(check int) "the same remote again" 0 (merge_writes remote);
  Alcotest.(check int) "a remote equal to the local" 0
    (merge_writes (ok (Physical.fetch_dir p1 [])));
  Alcotest.(check bool) "g adopted" true
    (Fdir.find_live (ok (Physical.fetch_dir p1 [])) "g" <> None)

let suite =
  [
    case "merge notes a summary event iff the DIR bytes change"
      test_merge_summary_event_iff_bytes_change;
    case "a merge that changes no DIR byte writes nothing" test_merge_of_equal_dir_writes_nothing;
    case "on-disk layout" test_create_layout;
    case "dual name/handle mapping" test_dual_mapping_at_names;
    case "write bumps version vector" test_write_bumps_version_vector;
    case "directory updates bump dir vv" test_dir_updates_bump_dir_vv;
    case "notifications emitted" test_notifications_emitted;
    case "install_file outcomes" test_install_file_outcomes;
    case "remove leaves tombstone" test_remove_is_tombstone_not_forgetting;
    case "rename within and across dirs" test_rename_within_and_across_dirs;
    case "rename directory across dirs" test_rename_directory_across_dirs;
    case "link shares storage and history" test_link_shares_storage_and_history;
    case "rmdir requires empty" test_rmdir_requires_empty;
    case "ctl open/close counted" test_ctl_open_close_counted;
    case "ctl getvv/readfile/getdir/resolve/peers/meta" test_ctl_getvv_readfile_getdir;
    case "graft point roundtrip" test_graft_point_roundtrip;
    case "attach after restart" test_attach_after_restart;
    case "recover sweeps shadows" test_recover_sweeps_shadows;
    case "subtree summaries track mutations" test_summary_tracks_mutations;
  ]
