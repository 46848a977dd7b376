(* The single-file atomic commit (paper §3.2): a crash mid-install must
   never damage the original version. *)

open Util

let setup () =
  let disk, fs = fresh_ufs () in
  let root = Ufs_vnode.root fs in
  let fid = { Ids.issuer = 1; uniq = 7 } in
  (disk, root, fid)

let test_install_creates () =
  let _, root, fid = setup () in
  ok (Shadow.install ~dir:root fid ~data:"fresh contents");
  Alcotest.(check string) "created" "fresh contents" (read_file root (Ids.fid_to_hex fid))

let test_install_replaces_atomically () =
  let _, root, fid = setup () in
  ok (Shadow.install ~dir:root fid ~data:"version 1");
  ok (Shadow.install ~dir:root fid ~data:"version 2 is longer");
  Alcotest.(check string) "replaced" "version 2 is longer"
    (read_file root (Ids.fid_to_hex fid));
  (* No shadow leftover after a clean install. *)
  expect_err Errno.ENOENT
    (Result.map (fun _ -> ()) (root.Vnode.lookup (Shadow.shadow_name fid)))

let test_crash_mid_install_preserves_original () =
  let disk, root, fid = setup () in
  ok (Shadow.install ~dir:root fid ~data:"the original");
  (* Let a handful of writes through (shadow creation + some data), then
     fail the device: the commit rename never happens. *)
  Disk.fail_writes_after disk 3;
  (match Shadow.install ~dir:root fid ~data:"the replacement" with
   | Ok () -> Alcotest.fail "install should have failed"
   | Error Errno.EIO -> ()
   | Error e -> Alcotest.failf "unexpected error %s" (Errno.to_string e));
  Disk.clear_failures disk;
  Alcotest.(check string) "original intact" "the original"
    (read_file root (Ids.fid_to_hex fid));
  (* Recovery discards the leftover shadow and a retry succeeds. *)
  Shadow.recover ~dir:root fid;
  expect_err Errno.ENOENT
    (Result.map (fun _ -> ()) (root.Vnode.lookup (Shadow.shadow_name fid)));
  ok (Shadow.install ~dir:root fid ~data:"the replacement");
  Alcotest.(check string) "retry wins" "the replacement"
    (read_file root (Ids.fid_to_hex fid))

let test_crash_at_every_write_preserves_original () =
  (* Sweep the failure point across the whole install: at no point may
     the original be lost or corrupted. *)
  let attempts = ref 0 in
  let survived = ref 0 in
  let fail_at n =
    let disk, root, fid = setup () in
    ok (Shadow.install ~dir:root fid ~data:"precious");
    Disk.fail_writes_after disk n;
    (match Shadow.install ~dir:root fid ~data:"replacement" with
     | Ok () ->
       Disk.clear_failures disk;
       (* Install completed before the injected failure: replacement is
          fine too. *)
       let data = read_file root (Ids.fid_to_hex fid) in
       if data = "replacement" then incr survived
     | Error _ ->
       Disk.clear_failures disk;
       (* The install failed: the file must hold ONE complete version —
          the original if the commit write never landed, the replacement
          if only post-commit cleanup failed.  Never a torn mixture. *)
       let data = read_file root (Ids.fid_to_hex fid) in
       if data = "precious" || data = "replacement" then incr survived
       else Alcotest.failf "torn contents after failing at write %d: %S" n data);
    incr attempts
  in
  for n = 0 to 12 do
    fail_at n
  done;
  Alcotest.(check int) "all sweep points safe" !attempts !survived

let test_reuses_leftover_shadow () =
  let _, root, fid = setup () in
  ok (Shadow.install ~dir:root fid ~data:"v1");
  let leftover = ok (root.Vnode.create (Shadow.shadow_name fid)) in
  ok (leftover.Vnode.write ~off:0 "stale partial data from a crash");
  ok (Shadow.install ~dir:root fid ~data:"v2");
  Alcotest.(check string) "clean contents" "v2" (read_file root (Ids.fid_to_hex fid))

(* A record hard-linked into a second directory (as [Physical]'s
   [dir_link] links a file's aux) stays one record through stores that
   fit one block, stores that do not, and the moves between them. *)
let test_linked_record_stays_shared () =
  let _, root, _ = setup () in
  let a = ok (root.Vnode.mkdir "a") and b = ok (root.Vnode.mkdir "b") in
  ok (Shadow.store_record ~dir:a "r" "small");
  ok (b.Vnode.link (ok (a.Vnode.lookup "r")) "r");
  List.iter
    (fun payload ->
      ok (Shadow.store_record ~dir:a "r" payload);
      Alcotest.(check string)
        (Printf.sprintf "%d bytes, read through the other name" (String.length payload))
        payload
        (ok (Shadow.load_record ~dir:b "r")))
    [ String.make 700 'l'; String.make 1500 'L'; String.make 600 'm'; "small again" ];
  let attrs = ok ((ok (b.Vnode.lookup "r")).Vnode.getattr ()) in
  Alcotest.(check int) "still two links" 2 attrs.Vnode.nlink;
  Alcotest.(check int) "trimmed back to one block" Shadow.record_size attrs.Vnode.size

let suite =
  [
    case "install creates" test_install_creates;
    case "install replaces atomically" test_install_replaces_atomically;
    case "crash mid-install preserves original" test_crash_mid_install_preserves_original;
    case "crash sweep: original always safe" test_crash_at_every_write_preserves_original;
    case "reuses a leftover shadow" test_reuses_leftover_shadow;
    case "a linked record stays shared" test_linked_record_stays_shared;
  ]
