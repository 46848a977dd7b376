(* Trace capture and replay: record a workload on one stack, replay it
   bit-for-bit on another. *)

open Util

let ufs_root () =
  let _, fs = fresh_ufs ~blocks:4096 () in
  Ufs_vnode.root fs

let test_capture_basic () =
  let trace = Trace_layer.create () in
  let root = Trace_layer.wrap trace (ufs_root ()) in
  let d = ok (root.Vnode.mkdir "d") in
  let f = ok (d.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "hello");
  let _ = ok (f.Vnode.read ~off:0 ~len:5) in
  let events = Trace_layer.events trace in
  Alcotest.(check int) "four events" 4 (List.length events);
  match events with
  | [ Trace_layer.Mkdir (0, "d", _); Trace_layer.Create (_, "f", fid);
      Trace_layer.Write (fid', 0, 5); Trace_layer.Read (fid'', 0, 5) ] ->
    Alcotest.(check int) "consistent ids" fid fid';
    Alcotest.(check int) "consistent ids 2" fid fid''
  | _ -> Alcotest.fail "unexpected event shapes"

let test_failed_ops_not_recorded () =
  let trace = Trace_layer.create () in
  let root = Trace_layer.wrap trace (ufs_root ()) in
  let _ = root.Vnode.lookup "missing" in
  let _ = root.Vnode.remove "missing" in
  Alcotest.(check int) "nothing recorded" 0 (Trace_layer.length trace)

let test_replay_reproduces_structure () =
  (* Capture a small tree build on one UFS, replay on a fresh one. *)
  let trace = Trace_layer.create () in
  let root = Trace_layer.wrap trace (ufs_root ()) in
  let d = ok (root.Vnode.mkdir "docs") in
  let f = ok (d.Vnode.create "a.txt") in
  ok (f.Vnode.write ~off:0 (String.make 64 'z'));
  let _ = ok (root.Vnode.create "top") in
  ok (d.Vnode.rename "a.txt" d "b.txt");
  let fresh = ufs_root () in
  let stats = Trace_layer.replay fresh (Trace_layer.events trace) in
  Alcotest.(check int) "no failures" 0 stats.Trace_layer.failed;
  (* Structure matches. *)
  let names v = ok (v.Vnode.readdir ()) |> List.map (fun e -> e.Vnode.entry_name) |> List.sort compare in
  Alcotest.(check (list string)) "root" [ "docs"; "top" ] (names fresh);
  let docs = ok (fresh.Vnode.lookup "docs") in
  Alcotest.(check (list string)) "docs" [ "b.txt" ] (names docs);
  let b = ok (docs.Vnode.lookup "b.txt") in
  Alcotest.(check int) "size replayed" 64 (ok (b.Vnode.getattr ())).Vnode.size

let test_replay_against_ficus_stack () =
  (* The point of the tool: a trace captured over a bare UFS replays
     unchanged over the full replicated stack. *)
  let trace = Trace_layer.create () in
  let root = Trace_layer.wrap trace (ufs_root ()) in
  let d = ok (root.Vnode.mkdir "proj") in
  for i = 0 to 4 do
    let f = ok (d.Vnode.create (Printf.sprintf "src%d" i)) in
    ok (f.Vnode.write ~off:0 (String.make 32 'c'))
  done;
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let froot = ok (Cluster.logical_root cluster 0 vref) in
  let stats = Trace_layer.replay froot (Trace_layer.events trace) in
  Alcotest.(check int) "replays cleanly" 0 stats.Trace_layer.failed;
  (* And the replayed activity replicates like any other. *)
  let (_ : int) = Cluster.run_propagation cluster in
  let root1 = ok (Cluster.logical_root cluster 1 vref) in
  Alcotest.(check int) "replicated" 32 (String.length (read_file root1 "proj/src3"))

let test_replay_truncation () =
  (* [write_all] truncates with setattr before writing; a replay that
     missed the setattr would keep the longer first version's tail. *)
  let trace = Trace_layer.create () in
  let root = Trace_layer.wrap trace (ufs_root ()) in
  let f = ok (root.Vnode.create "f") in
  ok (Vnode.write_all f "a long original");
  ok (Vnode.write_all f "x");
  let captured = (ok (f.Vnode.getattr ())).Vnode.size in
  Alcotest.(check int) "captured size" 1 captured;
  let fresh = ufs_root () in
  let stats = Trace_layer.replay fresh (Trace_layer.events trace) in
  Alcotest.(check int) "no failures" 0 stats.Trace_layer.failed;
  let replayed = ok (fresh.Vnode.lookup "f") in
  Alcotest.(check int) "replayed size" captured (ok (replayed.Vnode.getattr ())).Vnode.size

let test_replay_failures_counted () =
  let trace = Trace_layer.create () in
  let root = Trace_layer.wrap trace (ufs_root ()) in
  let _ = ok (root.Vnode.create "dup") in
  let fresh = ufs_root () in
  (* Pre-create the same name so the replayed create fails; dependent
     events on the unresolved id count as failures too. *)
  let _ = ok (fresh.Vnode.create "dup") in
  let stats = Trace_layer.replay fresh (Trace_layer.events trace) in
  Alcotest.(check int) "failure counted" 1 stats.Trace_layer.failed

let suite =
  [
    case "capture basic" test_capture_basic;
    case "failed ops not recorded" test_failed_ops_not_recorded;
    case "replay reproduces structure" test_replay_reproduces_structure;
    case "UFS trace replays over Ficus" test_replay_against_ficus_stack;
    case "replay reproduces truncation" test_replay_truncation;
    case "replay failures counted" test_replay_failures_counted;
  ]
