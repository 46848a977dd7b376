(* The UFS substrate: inodes, directories, allocation, fsck. *)

open Util

let fsck fs =
  match Ufs.check fs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fsck: %s" msg

let test_mkfs_mount () =
  let disk, fs = fresh_ufs () in
  fsck fs;
  let counter = ref 1000 in
  let now () = incr counter; !counter in
  let fs2 = ok (Ufs.mount ~now disk) in
  let attrs = ok (Ufs.stat fs2 (Ufs.root fs2)) in
  Alcotest.(check bool) "root is a dir" true (attrs.Ufs.kind = Ufs.Dir)

let test_mount_rejects_unformatted () =
  let disk = Disk.create ~nblocks:64 ~block_size:1024 () in
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Ufs.mount ~now:(fun () -> 0) disk))

let test_create_write_read () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "file") in
  ok (Ufs.write fs f ~off:0 "hello world");
  Alcotest.(check string) "read" "hello world" (ok (Ufs.read fs f ~off:0 ~len:100));
  Alcotest.(check string) "offset read" "world" (ok (Ufs.read fs f ~off:6 ~len:5));
  Alcotest.(check string) "past eof" "" (ok (Ufs.read fs f ~off:100 ~len:10));
  fsck fs

let test_overwrite_and_extend () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "file") in
  ok (Ufs.write fs f ~off:0 "aaaaaaaaaa");
  ok (Ufs.write fs f ~off:5 "BB");
  Alcotest.(check string) "patched" "aaaaaBBaaa" (ok (Ufs.read fs f ~off:0 ~len:10));
  ok (Ufs.write fs f ~off:20 "tail");
  let s = ok (Ufs.read fs f ~off:0 ~len:24) in
  Alcotest.(check int) "extended size" 24 (String.length s);
  Alcotest.(check string) "gap is zeros" (String.make 10 '\000') (String.sub s 10 10);
  Alcotest.(check string) "tail" "tail" (String.sub s 20 4);
  fsck fs

let test_large_file_spans_indirect_blocks () =
  let _, fs = fresh_ufs ~blocks:4096 () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "big") in
  (* 1 KiB blocks, 12 direct: write 40 KiB to exercise the indirect
     block. *)
  let chunk = String.make 1024 'x' in
  for i = 0 to 39 do
    ok (Ufs.write fs f ~off:(i * 1024) chunk)
  done;
  let attrs = ok (Ufs.stat fs f) in
  Alcotest.(check int) "size" (40 * 1024) attrs.Ufs.size;
  Alcotest.(check string) "far read" "xxxx" (ok (Ufs.read fs f ~off:(39 * 1024) ~len:4));
  ok (Ufs.truncate fs f 100);
  Alcotest.(check int) "shrunk" 100 (ok (Ufs.stat fs f)).Ufs.size;
  fsck fs

let test_truncate_zeroes_tail () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "file") in
  ok (Ufs.write fs f ~off:0 "abcdefghij");
  ok (Ufs.truncate fs f 4);
  ok (Ufs.truncate fs f 10);
  Alcotest.(check string) "tail re-reads as zeros" ("abcd" ^ String.make 6 '\000')
    (ok (Ufs.read fs f ~off:0 ~len:10));
  fsck fs

let test_mkdir_lookup_entries () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "sub") in
  let f = ok (Ufs.create fs ~dir:d "inner") in
  Alcotest.(check int) "lookup" f (ok (Ufs.dir_lookup fs d "inner"));
  expect_err Errno.ENOENT (Ufs.dir_lookup fs d "nope");
  expect_err Errno.ENOTDIR (Ufs.dir_lookup fs f "x");
  let entries = ok (Ufs.dir_entries fs root) in
  Alcotest.(check (list string)) "root entries" [ "sub" ]
    (List.map (fun (n, _, _) -> n) entries);
  fsck fs

let test_create_existing_rejected () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let _ = ok (Ufs.create fs ~dir:root "x") in
  expect_err Errno.EEXIST (Ufs.create fs ~dir:root "x");
  expect_err Errno.EEXIST (Ufs.mkdir fs ~dir:root "x")

let test_invalid_names_rejected () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  expect_err Errno.EINVAL (Ufs.create fs ~dir:root "");
  expect_err Errno.EINVAL (Ufs.create fs ~dir:root "a/b");
  expect_err Errno.ENAMETOOLONG (Ufs.create fs ~dir:root (String.make 300 'n'))

let test_unlink_frees_space () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let free0 = ok (Ufs.nfree_blocks fs) in
  let f = ok (Ufs.create fs ~dir:root "file") in
  ok (Ufs.write fs f ~off:0 (String.make 4096 'x'));
  Alcotest.(check bool) "blocks consumed" true (ok (Ufs.nfree_blocks fs) < free0);
  ok (Ufs.unlink fs ~dir:root "file");
  Alcotest.(check int) "blocks restored" free0 (ok (Ufs.nfree_blocks fs));
  expect_err Errno.ENOENT (Ufs.dir_lookup fs root "file");
  fsck fs

let test_unlink_respects_links () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let f = ok (Ufs.create fs ~dir:root "a") in
  ok (Ufs.write fs f ~off:0 "shared");
  ok (Ufs.link fs ~dir:root "b" f);
  Alcotest.(check int) "nlink" 2 (ok (Ufs.stat fs f)).Ufs.nlink;
  ok (Ufs.unlink fs ~dir:root "a");
  Alcotest.(check string) "alive via b" "shared" (ok (Ufs.read fs f ~off:0 ~len:6));
  ok (Ufs.unlink fs ~dir:root "b");
  expect_err Errno.ESTALE (Result.map (fun _ -> ()) (Ufs.stat fs f));
  fsck fs

let test_rmdir_rules () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let _ = ok (Ufs.create fs ~dir:d "f") in
  expect_err Errno.ENOTEMPTY (Ufs.rmdir fs ~dir:root "d");
  ok (Ufs.unlink fs ~dir:d "f");
  ok (Ufs.rmdir fs ~dir:root "d");
  expect_err Errno.ENOENT (Ufs.dir_lookup fs root "d");
  fsck fs

let test_dir_hard_links () =
  (* Ficus needs directory links (the namespace is a DAG, paper §2.5). *)
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d1") in
  ok (Ufs.link fs ~dir:root "d2" d);
  Alcotest.(check int) "nlink 2" 2 (ok (Ufs.stat fs d)).Ufs.nlink;
  let _ = ok (Ufs.create fs ~dir:d "inner") in
  (* Removing one name of a non-empty multi-linked dir is allowed... *)
  ok (Ufs.rmdir fs ~dir:root "d1");
  Alcotest.(check int) "lookup via d2" d (ok (Ufs.dir_lookup fs root "d2"));
  (* ...but removing the last name still requires empty. *)
  expect_err Errno.ENOTEMPTY (Ufs.rmdir fs ~dir:root "d2");
  ok (Ufs.unlink fs ~dir:d "inner");
  ok (Ufs.rmdir fs ~dir:root "d2");
  fsck fs

let test_rename_basic_and_replace () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let d1 = ok (Ufs.mkdir fs ~dir:root "d1") in
  let d2 = ok (Ufs.mkdir fs ~dir:root "d2") in
  let f = ok (Ufs.create fs ~dir:d1 "f") in
  ok (Ufs.write fs f ~off:0 "payload");
  ok (Ufs.rename fs ~sdir:d1 ~sname:"f" ~ddir:d2 ~dname:"g");
  expect_err Errno.ENOENT (Ufs.dir_lookup fs d1 "f");
  Alcotest.(check int) "moved" f (ok (Ufs.dir_lookup fs d2 "g"));
  (* Replace an existing destination. *)
  let g2 = ok (Ufs.create fs ~dir:d2 "h") in
  ok (Ufs.write fs g2 ~off:0 "doomed");
  ok (Ufs.rename fs ~sdir:d2 ~sname:"g" ~ddir:d2 ~dname:"h");
  Alcotest.(check int) "replaced" f (ok (Ufs.dir_lookup fs d2 "h"));
  expect_err Errno.ESTALE (Result.map (fun _ -> ()) (Ufs.stat fs g2));
  fsck fs

let test_rename_same_object_noop () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let f = ok (Ufs.create fs ~dir:root "a") in
  ok (Ufs.link fs ~dir:root "b" f);
  ok (Ufs.rename fs ~sdir:root ~sname:"a" ~ddir:root ~dname:"b");
  (* POSIX: same file under both names -> no-op, both remain. *)
  Alcotest.(check int) "a stays" f (ok (Ufs.dir_lookup fs root "a"));
  Alcotest.(check int) "b stays" f (ok (Ufs.dir_lookup fs root "b"));
  fsck fs

let test_enospc () =
  let _, fs = fresh_ufs ~blocks:96 ~block_size:1024 () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "hog") in
  let rec fill off =
    match Ufs.write fs f ~off (String.make 1024 'x') with
    | Ok () -> fill (off + 1024)
    | Error e -> e
  in
  Alcotest.check errno "fills up" Errno.ENOSPC (fill 0)

let test_inode_exhaustion () =
  let _, fs = fresh_ufs ~blocks:2048 () in
  let root = Ufs.root fs in
  let rec create i =
    match Ufs.create fs ~dir:root (Printf.sprintf "f%d" i) with
    | Ok _ -> create (i + 1)
    | Error e -> e
  in
  Alcotest.check errno "runs out of inodes" Errno.ENFILE (create 0)

let test_generation_bumped_on_reuse () =
  let _, fs = fresh_ufs () in
  let root = Ufs.root fs in
  let f1 = ok (Ufs.create fs ~dir:root "a") in
  let gen1 = (ok (Ufs.stat fs f1)).Ufs.gen in
  ok (Ufs.unlink fs ~dir:root "a");
  let f2 = ok (Ufs.create fs ~dir:root "b") in
  if f1 = f2 then
    Alcotest.(check bool) "gen bumped" true ((ok (Ufs.stat fs f2)).Ufs.gen > gen1)

let test_persistence_across_mount () =
  let disk, fs = fresh_ufs () in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "keep") in
  let f = ok (Ufs.create fs ~dir:d "data") in
  ok (Ufs.write fs f ~off:0 "durable");
  (* Remount with a cold cache; everything must come from the media. *)
  let fs2 = ok (Ufs.mount ~now:(fun () -> 0) disk) in
  let d' = ok (Ufs.dir_lookup fs2 (Ufs.root fs2) "keep") in
  let f' = ok (Ufs.dir_lookup fs2 d' "data") in
  Alcotest.(check string) "contents survive" "durable" (ok (Ufs.read fs2 f' ~off:0 ~len:7));
  fsck fs2

let test_directory_spanning_blocks () =
  (* ~80 entries x ~23 bytes exceeds one 1 KiB block: directory data must
     parse correctly across block boundaries and keep working after
     deletions shrink it back. *)
  let _, fs = fresh_ufs ~blocks:4096 () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "big") in
  for i = 0 to 79 do
    let _ = ok (Ufs.create fs ~dir:d (Printf.sprintf "entry-%02d-padpadpad" i)) in
    ()
  done;
  Alcotest.(check int) "all present" 80 (List.length (ok (Ufs.dir_entries fs d)));
  Alcotest.(check bool) "dir data spans blocks" true ((ok (Ufs.stat fs d)).Ufs.size > 1024);
  (* Random-access lookups across the boundary. *)
  let _ = ok (Ufs.dir_lookup fs d "entry-00-padpadpad") in
  let _ = ok (Ufs.dir_lookup fs d "entry-79-padpadpad") in
  (* Shrink below one block again. *)
  for i = 0 to 75 do
    ok (Ufs.unlink fs ~dir:d (Printf.sprintf "entry-%02d-padpadpad" i))
  done;
  Alcotest.(check int) "four left" 4 (List.length (ok (Ufs.dir_entries fs d)));
  fsck fs

let test_sparse_file_reads_zeros () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "sparse") in
  ok (Ufs.write fs f ~off:(5 * 1024) "end");
  Alcotest.(check string) "hole is zeros" (String.make 16 '\000')
    (ok (Ufs.read fs f ~off:1024 ~len:16));
  fsck fs

(* ------------------------------------------------------------------ *)
(* The parsed-directory views are checked against the bytes every read
   fetches, so no crash, journal abort or failed write can leave a stale
   one behind.  Random namespace histories, interleaved with injected
   write failures, aborted transactions and crash reboots: after every
   step the live file system's lookups must agree with its own entry
   lists, and at each checkpoint with a fresh mount of a copy of the
   media, with fsck clean on both. *)

type ufs_op =
  | U_create of int * int  (** dir, name *)
  | U_mkdir of int * int
  | U_unlink of int * int
  | U_rmdir of int * int
  | U_rename of int * int * int * int
  | U_bad_create of int  (** invalid name: the transaction aborts after allocating *)
  | U_fail_writes of int  (** the device fails every write after the next [n] *)
  | U_crash
  | U_checkpoint

let print_ufs_op = function
  | U_create (d, n) -> Printf.sprintf "create %d/%d" d n
  | U_mkdir (d, n) -> Printf.sprintf "mkdir %d/%d" d n
  | U_unlink (d, n) -> Printf.sprintf "unlink %d/%d" d n
  | U_rmdir (d, n) -> Printf.sprintf "rmdir %d/%d" d n
  | U_rename (a, b, c, d) -> Printf.sprintf "rename %d/%d %d/%d" a b c d
  | U_bad_create d -> Printf.sprintf "bad-create %d" d
  | U_fail_writes n -> Printf.sprintf "fail-writes-after %d" n
  | U_crash -> "crash"
  | U_checkpoint -> "checkpoint"

(* Long names make a directory of a dozen entries span several 512-byte
   blocks. *)
let ufs_prop_name n =
  if n mod 2 = 0 then Printf.sprintf "n%d" n else Printf.sprintf "n%d-%s" n (String.make 60 'p')

let ufs_op_gen =
  QCheck.Gen.(
    let dir = int_bound 7 and name = int_bound 13 in
    frequency
      [
        (6, map2 (fun d n -> U_create (d, n)) dir name);
        (3, map2 (fun d n -> U_mkdir (d, n)) dir name);
        (3, map2 (fun d n -> U_unlink (d, n)) dir name);
        (2, map2 (fun d n -> U_rmdir (d, n)) dir name);
        (4, map2 (fun (a, b) (c, d) -> U_rename (a, b, c, d)) (pair dir name) (pair dir name));
        (1, map (fun d -> U_bad_create d) dir);
        (1, map (fun n -> U_fail_writes n) (int_bound 12));
        (1, return U_crash);
        (1, return U_checkpoint);
      ])

let ufs_history_arb =
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil list)
    ~print:(fun (journaled, ops) ->
      Printf.sprintf "%s: %s"
        (if journaled then "journaled" else "unjournaled")
        (String.concat "; " (List.map print_ufs_op ops)))
    QCheck.Gen.(pair bool (list_size (int_range 1 60) ufs_op_gen))

(* Every directory reachable from the root, with its entries, in walk
   order. *)
let rec ufs_tree fs inum =
  match Ufs.dir_entries fs inum with
  | Error e -> [ (inum, Error e) ]
  | Ok entries ->
    (inum, Ok entries)
    :: List.concat_map
         (fun (_, child, kind) -> if kind = Ufs.Dir then ufs_tree fs child else [])
         entries

let show_tree tree =
  String.concat " | "
    (List.map
       (fun (inum, r) ->
         match r with
         | Error e -> Printf.sprintf "%d: %s" inum (Errno.to_string e)
         | Ok entries ->
           Printf.sprintf "%d: %s" inum
             (String.concat "," (List.map (fun (n, i, _) -> Printf.sprintf "%s=%d" n i) entries)))
       tree)

(* Lookups answer from the name index; the entry list is the parse.  A
   stale index shows up as a disagreement. *)
let lookups_agree ~ctx fs =
  List.iter
    (fun (dir, r) ->
      match r with
      | Error _ -> ()
      | Ok entries ->
        List.iter
          (fun n ->
            let expected =
              match List.find_opt (fun (n', _, _) -> n' = n) entries with
              | Some (_, i, _) -> Ok i
              | None -> Error Errno.ENOENT
            in
            let got = Ufs.dir_lookup fs dir n in
            if got <> expected then
              QCheck.Test.fail_reportf "%s: lookup %d/%s answered %s, entries say %s" ctx dir n
                (match got with Ok i -> string_of_int i | Error e -> Errno.to_string e)
                (match expected with Ok i -> string_of_int i | Error e -> Errno.to_string e))
          (List.init 14 ufs_prop_name))
    (ufs_tree fs (Ufs.root fs))

let matches_fresh_mount ~ctx disk fs =
  Disk.clear_failures disk;
  (match Ufs.sync fs with
   | Ok () -> ()
   | Error e -> QCheck.Test.fail_reportf "%s: sync: %s" ctx (Errno.to_string e));
  let copy = Disk.create ~nblocks:(Disk.nblocks disk) ~block_size:(Disk.block_size disk) () in
  Disk.restore copy (Disk.snapshot disk);
  let fresh =
    match Ufs.mount ~now:(fun () -> 0) copy with
    | Ok f -> f
    | Error e -> QCheck.Test.fail_reportf "%s: mount: %s" ctx (Errno.to_string e)
  in
  let live = ufs_tree fs (Ufs.root fs) and cold = ufs_tree fresh (Ufs.root fresh) in
  if live <> cold then
    QCheck.Test.fail_reportf "%s: live and fresh mount differ@.live:  %s@.fresh: %s" ctx
      (show_tree live) (show_tree cold);
  lookups_agree ~ctx fresh;
  List.iter
    (fun (which, f) ->
      match Ufs.check f with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "%s: fsck (%s): %s" ctx which m)
    [ ("live", fs); ("fresh", fresh) ]

let run_ufs_history (journaled, ops) =
  let disk = Disk.create ~nblocks:768 ~block_size:512 () in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  let fs =
    ok ~msg:"mkfs"
      (Ufs.mkfs ~cache_capacity:16 ~ninodes:96 ~journal_blocks:(if journaled then 96 else 0)
         ~journal_flush_blocks:8 ~journal_flush_age:4 ~now disk)
  in
  let dir_at i =
    let dirs = List.map fst (ufs_tree fs (Ufs.root fs)) in
    List.nth dirs (i mod List.length dirs)
  in
  List.iteri
    (fun step op ->
      let ctx = Printf.sprintf "step %d (%s)" step (print_ufs_op op) in
      (match op with
       | U_create (d, n) -> ignore (Ufs.create fs ~dir:(dir_at d) (ufs_prop_name n))
       | U_mkdir (d, n) -> ignore (Ufs.mkdir fs ~dir:(dir_at d) (ufs_prop_name n))
       | U_unlink (d, n) -> ignore (Ufs.unlink fs ~dir:(dir_at d) (ufs_prop_name n))
       | U_rmdir (d, n) -> ignore (Ufs.rmdir fs ~dir:(dir_at d) (ufs_prop_name n))
       | U_rename (a, b, c, d) ->
         let sdir = dir_at a and ddir = dir_at c in
         (* Moving a directory under itself would detach the subtree: the
            UFS, like the Ficus layers above it, leaves that check to its
            callers. *)
         let into_itself =
           match Ufs.dir_lookup fs sdir (ufs_prop_name b) with
           | Ok src -> List.mem_assoc ddir (ufs_tree fs src)
           | Error _ -> false
         in
         if not into_itself then
           ignore
             (Ufs.rename fs ~sdir ~sname:(ufs_prop_name b) ~ddir ~dname:(ufs_prop_name d))
       | U_bad_create d ->
         (* Allocates the inode, then fails on the name: only a journaled
            file system rolls that back, so only there is it fsck-clean. *)
         if journaled then ignore (Ufs.create fs ~dir:(dir_at d) "")
       | U_fail_writes n ->
         (* Unjournaled, a write failing mid-operation leaves the partial
            update on the media by design; the journal makes it atomic. *)
         if journaled then Disk.fail_writes_after disk n
       | U_crash ->
         Disk.clear_failures disk;
         ignore (Ufs.crash_reboot fs)
       | U_checkpoint -> matches_fresh_mount ~ctx disk fs);
      ignore (Ufs.journal_tick fs);
      lookups_agree ~ctx fs)
    ops;
  matches_fresh_mount ~ctx:"end" disk fs;
  true

let ufs_props =
  [
    QCheck.Test.make ~name:"directory views survive crashes, aborts and write failures"
      ~count:200 ufs_history_arb run_ufs_history;
  ]

let suite =
  [
    case "mkfs and mount" test_mkfs_mount;
    case "mount rejects unformatted disk" test_mount_rejects_unformatted;
    case "create, write, read" test_create_write_read;
    case "overwrite and extend" test_overwrite_and_extend;
    case "large file uses indirect blocks" test_large_file_spans_indirect_blocks;
    case "truncate zeroes the tail" test_truncate_zeroes_tail;
    case "mkdir, lookup, entries" test_mkdir_lookup_entries;
    case "create existing rejected" test_create_existing_rejected;
    case "invalid names rejected" test_invalid_names_rejected;
    case "unlink frees space" test_unlink_frees_space;
    case "unlink respects hard links" test_unlink_respects_links;
    case "rmdir rules" test_rmdir_rules;
    case "directory hard links (DAG)" test_dir_hard_links;
    case "rename: move and replace" test_rename_basic_and_replace;
    case "rename same object is a no-op" test_rename_same_object_noop;
    case "ENOSPC when full" test_enospc;
    case "ENFILE when inodes exhausted" test_inode_exhaustion;
    case "generation bumped on inode reuse" test_generation_bumped_on_reuse;
    case "persistence across remount" test_persistence_across_mount;
    case "directory spanning blocks" test_directory_spanning_blocks;
    case "sparse files read zeros" test_sparse_file_reads_zeros;
  ]
  @ List.map QCheck_alcotest.to_alcotest ufs_props
