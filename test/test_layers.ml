(* The three layers the paper forecasts (§1): performance monitoring,
   encryption, user authentication — inserted transparently, even
   *under* the whole Ficus stack. *)

open Util

let ufs_root () =
  let _, fs = fresh_ufs () in
  Ufs_vnode.root fs

(* ---------------- measurement ---------------- *)

let test_measure_counts_ops () =
  let metrics = Metrics.create () in
  let root = Measure_layer.wrap ~metrics (ufs_root ()) in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "x");
  let _ = ok (Vnode.read_all f) in
  let _ = root.Vnode.lookup "missing" in
  Alcotest.(check int) "creates" 1 (Metrics.counter metrics "measure.create.calls");
  Alcotest.(check int) "writes" 1 (Metrics.counter metrics "measure.write.calls");
  (* read_all = getattr + read *)
  Alcotest.(check int) "reads" 1 (Metrics.counter metrics "measure.read.calls");
  Alcotest.(check int) "lookup errors" 1 (Metrics.counter metrics "measure.lookup.errors");
  let report = Measure_layer.report metrics in
  let total column = List.fold_left (fun acc row -> acc + column row) 0 report in
  Alcotest.(check bool) "totals" true (total (fun (_, calls, _) -> calls) >= 4);
  Alcotest.(check int) "errors total" 1 (total (fun (_, _, errors) -> errors));
  Alcotest.(check bool) "report row" true (List.mem ("lookup", 1, 1) report)

let test_measure_timing () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let base = ufs_root () in
  let file = ok (base.Vnode.create "f") in
  ok (file.Vnode.write ~off:0 "abc");
  (* A deliberately slow lower vnode: every read burns 5 ticks. *)
  let slow =
    { file with
      Vnode.read =
        (fun ~off ~len ->
          Clock.advance clock 5;
          file.Vnode.read ~off ~len);
    }
  in
  let measured = Measure_layer.wrap ~clock ~metrics slow in
  let _ = ok (measured.Vnode.read ~off:0 ~len:3) in
  let _ = ok (measured.Vnode.read ~off:0 ~len:3) in
  Alcotest.(check int) "ticks attributed" 10 (Metrics.hist_sum metrics "measure.read.ticks");
  Alcotest.(check (option (triple int int int)))
    "read latency percentiles" (Some (5, 5, 5))
    (Metrics.percentiles metrics "measure.read.ticks")

let test_measure_transparent_rename () =
  let metrics = Metrics.create () in
  let root = Measure_layer.wrap ~metrics (ufs_root ()) in
  let d1 = ok (root.Vnode.mkdir "d1") in
  let d2 = ok (root.Vnode.mkdir "d2") in
  let _ = ok (d1.Vnode.create "f") in
  (* The destination directory is a measured vnode; the layer below must
     still recognize it. *)
  ok (d1.Vnode.rename "f" d2 "g");
  Alcotest.(check int) "renames" 1 (Metrics.counter metrics "measure.rename.calls")

(* A4 compares plain UFS and the Ficus stack on one operation sequence
   by replaying the same seeded workload on each; that rests on the
   replay making the identical vnode calls on both. *)
let test_measure_same_workload_same_calls () =
  let cfg =
    {
      Workload.default_trace with
      Workload.t_seed = 5;
      t_users = 3;
      t_files = 6;
      t_zipf_s = 1.0;
      t_payload = 512;
      t_mix = { Workload.read_w = 80; write_w = 20; rename_w = 0; mkdir_w = 0 };
    }
  in
  let calls root =
    let metrics = Metrics.create () in
    let root = Measure_layer.wrap ~metrics root in
    ok (Workload.setup_trace root cfg);
    let stats = Workload.replay ~root_for:(fun _ -> root) cfg ~ops:300 in
    Alcotest.(check int) "replay errors" 0 stats.Workload.tr_errors;
    Alcotest.(check int) "every replayed read measured" stats.Workload.tr_reads
      (Metrics.counter metrics "measure.read.calls");
    Measure_layer.report metrics
  in
  let phys =
    let _, fs = fresh_ufs () in
    ok
      (Physical.create ~obs:(Obs.create ()) ~container:(Ufs_vnode.root fs)
         ~clock:(Clock.create ()) ~host:"h" ~vref:{ Ids.alloc = 0; vol = 1 } ~rid:1
         ~peers:[ (1, "h") ] ())
  in
  let plain = calls (ufs_root ()) in
  let ficus = calls (Physical.root phys) in
  Alcotest.(check (list (triple string int int))) "same per-op calls" plain ficus;
  List.iter
    (fun (op, _, errors) -> Alcotest.(check int) (op ^ " errors") 0 errors)
    plain

(* ---------------- encryption ---------------- *)

let test_crypt_roundtrip () =
  let root = Crypt_layer.wrap ~key:"secret" (ufs_root ()) in
  let f = ok (root.Vnode.create "f") in
  ok (Vnode.write_all f "attack at dawn");
  Alcotest.(check string) "plaintext through the layer" "attack at dawn"
    (ok (Vnode.read_all f))

let test_crypt_random_access () =
  let root = Crypt_layer.wrap ~key:"k3y" (ufs_root ()) in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "0123456789");
  (* Overwrite a slice at an odd offset, then read another slice. *)
  ok (f.Vnode.write ~off:3 "XYZ");
  Alcotest.(check string) "mixed" "012XYZ6789" (ok (f.Vnode.read ~off:0 ~len:10));
  Alcotest.(check string) "slice" "YZ67" (ok (f.Vnode.read ~off:4 ~len:4))

let test_crypt_ciphertext_at_rest () =
  let base = ufs_root () in
  let root = Crypt_layer.wrap ~key:"secret" base in
  let f = ok (root.Vnode.create "f") in
  ok (Vnode.write_all f "attack at dawn");
  (* Bypass the layer: the stored bytes must not be the plaintext. *)
  let raw = ok (Vnode.read_all (ok (base.Vnode.lookup "f"))) in
  Alcotest.(check bool) "encrypted at rest" true (raw <> "attack at dawn");
  (* XOR involution: wrapping twice with the same key exposes plaintext. *)
  let double = Crypt_layer.wrap ~key:"secret" root in
  Alcotest.(check string) "involution" raw
    (ok (Vnode.read_all (ok (double.Vnode.lookup "f"))))

let test_ficus_physical_over_crypt () =
  (* The paper's punchline: layers "can indeed be transparently inserted
     between other layers".  Run the whole physical layer over an
     encrypting stack: its DIR and aux files are encrypted at rest and
     everything still works. *)
  let _, fs = fresh_ufs () in
  let base = Ufs_vnode.root fs in
  let container = Crypt_layer.wrap ~key:"volume-key" base in
  let clock = Clock.create () in
  let phys =
    ok
      (Physical.create ~obs:(Obs.create ()) ~container ~clock ~host:"h" ~vref:{ Ids.alloc = 0; vol = 1 } ~rid:1
         ~peers:[ (1, "h") ] ())
  in
  let root = Physical.root phys in
  let d = ok (root.Vnode.mkdir "docs") in
  let f = ok (d.Vnode.create "plan") in
  ok (Vnode.write_all f "encrypted underneath");
  Alcotest.(check string) "read through the full stack" "encrypted underneath"
    (read_file root "docs/plan");
  (* The on-disk DIR file is ciphertext. *)
  let hexroot = ok (base.Vnode.lookup (Ids.fid_to_hex Ids.root_fid)) in
  let raw_dir = ok (Vnode.read_all (ok (hexroot.Vnode.lookup "DIR"))) in
  Alcotest.(check bool) "DIR file encrypted at rest" true
    (Fdir.decode raw_dir = None)

(* ---------------- access control ---------------- *)

let setup_owned () =
  let base = ufs_root () in
  (* Superuser creates a private file (0600) and a public one (0644). *)
  let su = Access_layer.wrap ~uid:0 base in
  let priv = ok (su.Vnode.create "private") in
  ok (Vnode.write_all priv "sekrit");
  ok (priv.Vnode.setattr { Vnode.setattr_none with set_uid = Some 1; set_mode = Some 0o600 });
  let pub = ok (su.Vnode.create "public") in
  ok (Vnode.write_all pub "hello");
  ok (pub.Vnode.setattr { Vnode.setattr_none with set_uid = Some 1; set_mode = Some 0o644 });
  base

let test_owner_reads_private () =
  let base = setup_owned () in
  let alice = Access_layer.wrap ~uid:1 base in
  Alcotest.(check string) "owner reads" "sekrit"
    (ok (Vnode.read_all (ok (alice.Vnode.lookup "private"))))

let test_other_denied_private () =
  let base = setup_owned () in
  let bob = Access_layer.wrap ~uid:2 base in
  let f = ok (bob.Vnode.lookup "private") in
  expect_err Errno.EACCES (Result.map (fun _ -> ()) (Vnode.read_all f));
  expect_err Errno.EACCES (f.Vnode.write ~off:0 "defaced");
  (* Public file still readable, but not writable (0644, not owner). *)
  let p = ok (bob.Vnode.lookup "public") in
  Alcotest.(check string) "public read ok" "hello" (ok (Vnode.read_all p));
  expect_err Errno.EACCES (p.Vnode.write ~off:0 "defaced")

let test_superuser_bypasses () =
  let base = setup_owned () in
  let su = Access_layer.wrap ~uid:0 base in
  let f = ok (su.Vnode.lookup "private") in
  Alcotest.(check string) "root reads anything" "sekrit" (ok (Vnode.read_all f));
  ok (f.Vnode.write ~off:0 "SEKRIT")

let test_directory_write_gated () =
  let base = setup_owned () in
  let su = Access_layer.wrap ~uid:0 base in
  let d = ok (su.Vnode.mkdir "readonly-dir") in
  ok (d.Vnode.setattr { Vnode.setattr_none with set_mode = Some 0o555 });
  let bob = Access_layer.wrap ~uid:2 base in
  let bd = ok (bob.Vnode.lookup "readonly-dir") in
  expect_err Errno.EACCES (Result.map (fun _ -> ()) (bd.Vnode.create "nope"));
  expect_err Errno.EACCES (Result.map (fun _ -> ()) (bd.Vnode.mkdir "nope"));
  (* Traversal (x bit) is allowed. *)
  let _ = ok (bd.Vnode.readdir ()) in
  ()

let test_rename_into_locked_dir () =
  let base = ufs_root () in
  let su = Access_layer.wrap ~uid:0 base in
  ok (su.Vnode.setattr { Vnode.setattr_none with set_mode = Some 0o777 });
  let locked = ok (su.Vnode.mkdir "locked") in
  ok (locked.Vnode.setattr { Vnode.setattr_none with set_mode = Some 0o555 });
  let bob = Access_layer.wrap ~uid:2 base in
  let _ = ok (bob.Vnode.create "mine") in
  let bob_locked = ok (bob.Vnode.lookup "locked") in
  (* Writable source directory, read-only destination: refused. *)
  expect_err Errno.EACCES (bob.Vnode.rename "mine" bob_locked "moved");
  let raw_locked = ok (base.Vnode.lookup "locked") in
  expect_err Errno.ENOENT (Result.map ignore (raw_locked.Vnode.lookup "moved"));
  let _ = ok (base.Vnode.lookup "mine") in
  ()

let test_chmod_own_file_without_write_bit () =
  let base = setup_owned () in
  let alice = Access_layer.wrap ~uid:1 base in
  let f = ok (alice.Vnode.lookup "private") in
  ok (f.Vnode.setattr { Vnode.setattr_none with set_mode = Some 0o400 });
  (* Now even the owner cannot write... *)
  expect_err Errno.EACCES (f.Vnode.write ~off:0 "x");
  (* ...but can still chmod it back. *)
  ok (f.Vnode.setattr { Vnode.setattr_none with set_mode = Some 0o600 });
  ok (f.Vnode.write ~off:0 "x")

let test_stacked_all_three () =
  (* monitoring over access control over encryption over UFS. *)
  let metrics = Metrics.create () in
  let base = ufs_root () in
  let stack =
    Measure_layer.wrap ~metrics
      (Access_layer.wrap ~uid:0 (Crypt_layer.wrap ~key:"k" base))
  in
  let f = ok (stack.Vnode.create "f") in
  ok (Vnode.write_all f "through three layers");
  Alcotest.(check string) "roundtrip" "through three layers" (ok (Vnode.read_all f));
  Alcotest.(check bool) "measured" true (Measure_layer.report metrics <> []);
  let raw = ok (Vnode.read_all (ok (base.Vnode.lookup "f"))) in
  Alcotest.(check bool) "still encrypted below" true (raw <> "through three layers")

let suite =
  [
    case "measure: counts ops and errors" test_measure_counts_ops;
    case "measure: attributes simulated time" test_measure_timing;
    case "measure: transparent to sibling ops" test_measure_transparent_rename;
    case "measure: a workload replay makes the same calls on UFS and Ficus"
      test_measure_same_workload_same_calls;
    case "crypt: roundtrip" test_crypt_roundtrip;
    case "crypt: random access" test_crypt_random_access;
    case "crypt: ciphertext at rest + involution" test_crypt_ciphertext_at_rest;
    case "crypt: full Ficus physical layer on top" test_ficus_physical_over_crypt;
    case "access: owner reads private" test_owner_reads_private;
    case "access: others denied" test_other_denied_private;
    case "access: superuser bypasses" test_superuser_bypasses;
    case "access: directory writes gated" test_directory_write_gated;
    case "access: rename into a read-only directory denied" test_rename_into_locked_dir;
    case "access: chmod own file" test_chmod_own_file_without_write_bit;
    case "all three layers stacked" test_stacked_all_three;
  ]
