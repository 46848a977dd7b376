(* Smaller core modules: aux attribute files, the conflict log, the
   new-version cache. *)

open Util
module Vv = Version_vector

(* ---------------- aux attribute files ---------------- *)

let test_aux_codec_roundtrip () =
  let cases =
    [
      Aux_attrs.make Aux_attrs.Freg;
      { (Aux_attrs.make Aux_attrs.Fdir) with Aux_attrs.uid = 42; conflict = true };
      {
        (Aux_attrs.make Aux_attrs.Fgraft) with
        Aux_attrs.vv = Vv.of_list [ (1, 3); (9, 7) ];
        graft_target = Some { Ids.alloc = 2; vol = 5 };
      };
    ]
  in
  List.iter
    (fun aux ->
      match Aux_attrs.decode (Aux_attrs.encode aux) with
      | None -> Alcotest.fail "decode failed"
      | Some aux' ->
        Alcotest.(check bool) "kind" true (aux.Aux_attrs.kind = aux'.Aux_attrs.kind);
        Alcotest.check vv_testable "vv" aux.Aux_attrs.vv aux'.Aux_attrs.vv;
        Alcotest.(check int) "uid" aux.Aux_attrs.uid aux'.Aux_attrs.uid;
        Alcotest.(check bool) "conflict" aux.Aux_attrs.conflict aux'.Aux_attrs.conflict;
        Alcotest.(check bool) "graft" true
          (aux.Aux_attrs.graft_target = aux'.Aux_attrs.graft_target))
    cases

let test_aux_decode_rejects_garbage () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Aux_attrs.decode s = None))
    [ ""; "kind=banana\nvv=\nuid=0\nconflict=0\n"; "vv=1:1\n"; "kind=reg\nvv=x:y\nuid=0\nconflict=0\n" ]

let test_aux_load_store_via_vnodes () =
  let _, fs = fresh_ufs () in
  let root = Ufs_vnode.root fs in
  let fid = { Ids.issuer = 2; uniq = 9 } in
  let aux = { (Aux_attrs.make Aux_attrs.Freg) with Aux_attrs.vv = Vv.singleton 2 4 } in
  ok (Aux_attrs.store ~dir:root fid aux);
  let aux' = ok (Aux_attrs.load ~dir:root fid) in
  Alcotest.check vv_testable "vv persisted" (Vv.singleton 2 4) aux'.Aux_attrs.vv;
  (* Overwrite in place. *)
  ok (Aux_attrs.store ~dir:root fid { aux with Aux_attrs.conflict = true });
  Alcotest.(check bool) "updated" true (ok (Aux_attrs.load ~dir:root fid)).Aux_attrs.conflict;
  expect_err Errno.ENOENT
    (Result.map (fun _ -> ()) (Aux_attrs.load ~dir:root { Ids.issuer = 0; uniq = 99 }))

(* ---------------- conflict log ---------------- *)

let test_conflict_log_lifecycle () =
  let log = Conflict_log.create () in
  let vref = { Ids.alloc = 0; vol = 1 } in
  let e1 =
    Conflict_log.report log ~vref ~fidpath:[] ~fid:Ids.root_fid ~owner_uid:7 ~detected_at:5
      (Conflict_log.Name_collision { name = "x"; births = [] })
  in
  let _e2 =
    Conflict_log.report log ~vref ~fidpath:[] ~fid:Ids.root_fid ~owner_uid:7 ~detected_at:6
      (Conflict_log.Removed_while_updated { orphaned_to = "ORPHANS/x" })
  in
  Alcotest.(check int) "two pending" 2 (List.length (Conflict_log.pending log));
  Alcotest.(check int) "ids distinct" 1
    (match Conflict_log.all log with a :: b :: _ -> b.Conflict_log.id - a.Conflict_log.id | _ -> 0);
  Conflict_log.mark_resolved log e1.Conflict_log.id;
  Alcotest.(check int) "one left" 1 (List.length (Conflict_log.pending log));
  Alcotest.(check int) "all keeps both" 2 (List.length (Conflict_log.all log));
  Alcotest.(check bool) "find" true (Conflict_log.find log e1.Conflict_log.id <> None);
  Conflict_log.mark_resolved log 999 (* unknown id: no-op *)

(* ---------------- new-version cache ---------------- *)

let event ?(fid = 7) ?(rid = 2) ?(host = "hostB") () =
  {
    Notify.vref = { Ids.alloc = 0; vol = 1 };
    fidpath = [ { Ids.issuer = 1; uniq = fid } ];
    fid = { Ids.issuer = 1; uniq = fid };
    kind = Aux_attrs.Freg;
    origin_rid = rid;
    origin_host = host;
    span = 0;
    vv = Version_vector.empty;
  }

let note nvc e ~now = ignore (New_version_cache.note nvc e ~now : bool)

let test_nvc_dedupes_per_object () =
  let nvc = New_version_cache.create () in
  let absorbed =
    List.map (fun (e, now) -> New_version_cache.note nvc e ~now) [ (event (), 0); (event (), 3); (event ~fid:8 (), 4) ]
  in
  Alcotest.(check (list bool)) "only the second note absorbed" [ false; true; false ] absorbed;
  Alcotest.(check int) "two objects" 2 (New_version_cache.size nvc)

let test_nvc_keeps_earliest_age_and_newest_origin () =
  let nvc = New_version_cache.create () in
  note nvc (event ~rid:2 ~host:"hostB" ()) ~now:0;
  note nvc (event ~rid:3 ~host:"hostC" ()) ~now:9;
  (* Not yet old enough if age counts from the second note... it must
     count from the first. *)
  let ready = New_version_cache.take_ready nvc ~now:10 ~min_age:10 in
  Alcotest.(check int) "ready by first-note age" 1 (List.length ready);
  let e = List.hd ready in
  Alcotest.(check string) "newest origin host" "hostC" e.New_version_cache.origin_host;
  Alcotest.(check int) "newest origin rid" 3 e.New_version_cache.origin_rid

let test_nvc_min_age_filter () =
  let nvc = New_version_cache.create () in
  note nvc (event ~fid:1 ()) ~now:0;
  note nvc (event ~fid:2 ()) ~now:8;
  let ready = New_version_cache.take_ready nvc ~now:10 ~min_age:5 in
  Alcotest.(check int) "only the old one" 1 (List.length ready);
  Alcotest.(check int) "younger still parked" 1 (New_version_cache.size nvc);
  (* Requeue puts it back for a later retry. *)
  New_version_cache.requeue nvc (List.hd ready);
  Alcotest.(check int) "requeued" 2 (New_version_cache.size nvc)

let test_nvc_dedup_counter_and_vv_merge () =
  let nvc = New_version_cache.create () in
  let e1 = { (event ()) with Notify.vv = Vv.singleton 1 1 } in
  let e2 = { (event ~rid:3 ~host:"hostC" ()) with Notify.vv = Vv.singleton 1 2 } in
  Alcotest.(check bool) "fresh entry is not a dup" false
    (New_version_cache.note nvc e1 ~now:0);
  Alcotest.(check bool) "second note absorbed" true
    (New_version_cache.note nvc e2 ~now:1);
  Alcotest.(check int) "one entry" 1 (New_version_cache.size nvc);
  (* The collapsed entry carries the merged version vector, so the
     dominated-pull check sees everything the notifications advertised. *)
  let e = List.hd (New_version_cache.take_ready nvc ~now:5 ~min_age:0) in
  Alcotest.check vv_testable "vvs merged" (Vv.singleton 1 2) e.New_version_cache.vv

let suite =
  [
    case "aux codec roundtrip" test_aux_codec_roundtrip;
    case "aux decode rejects garbage" test_aux_decode_rejects_garbage;
    case "aux load/store via vnodes" test_aux_load_store_via_vnodes;
    case "conflict log lifecycle" test_conflict_log_lifecycle;
    case "nvc dedupes per object" test_nvc_dedupes_per_object;
    case "nvc keeps earliest age, newest origin" test_nvc_keeps_earliest_age_and_newest_origin;
    case "nvc min-age filter and requeue" test_nvc_min_age_filter;
    case "nvc dedup counter and vv merge" test_nvc_dedup_counter_and_vv_merge;
  ]
