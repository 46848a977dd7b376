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

(* Unjournaled, every call is write-through, so a crash after any
   prefix of its device writes is a state the next mount sees.  Pointers
   go before bitmap bits: allocation sets the bits first and the inode
   last, freeing drops the pointers first and clears the bits last.  A
   crash may leak blocks (allocated but unreferenced, write-through's
   known cost) but must never leave a live file referencing a free
   block, which the next allocation would hand out twice. *)
let test_crash_order_never_frees_live_blocks () =
  let twenty = String.init (20 * 1024) (fun i -> Char.chr (97 + (i mod 26))) in
  let sweep what setup op =
    let rec go k =
      let disk, fs = fresh_ufs ~blocks:256 () in
      let f = setup fs in
      Disk.fail_writes_after disk k;
      let r = op fs f in
      Disk.clear_failures disk;
      let fs = ok (Ufs.mount ~now:(fun () -> 0) disk) in
      (match Ufs.check fs with
       | Ok () -> ()
       | Error msg ->
         if
           List.exists
             (String.ends_with ~suffix:"referenced but free")
             (String.split_on_char ';' msg)
         then Alcotest.failf "%s, crash after %d device writes: %s" what k msg);
      match r with Ok () -> k | Error _ -> go (k + 1)
    in
    let writes = go 0 in
    Alcotest.(check bool) (Printf.sprintf "%s swept %d prefixes" what writes) true (writes > 2)
  in
  let file fs = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
  sweep "truncate 20 blocks to 1"
    (fun fs ->
      let f = file fs in
      ok (Ufs.write fs f ~off:0 twenty);
      f)
    (fun fs f -> Ufs.truncate fs f 1000);
  sweep "write 20 blocks into a fresh file" file (fun fs f -> Ufs.write fs f ~off:0 twenty)

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
  let f = ok (Ufs.create fs ~dir:root "file") in
  (* Counted once the root holds its block, which it keeps. *)
  let free0 = ok (Ufs.nfree_blocks fs) in
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

(* A directory at 512-byte blocks: 500 entries of 15 bytes fill 15
   blocks, past the 12 direct ones into the indirect block. *)
let big_dir_512 () =
  let disk, fs = fresh_ufs ~blocks:4096 ~block_size:512 () in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "big") in
  for i = 0 to 499 do
    ignore (ok (Ufs.create fs ~dir:d (Printf.sprintf "entry-%03d" i)))
  done;
  Alcotest.(check bool) "spans the indirect block" true ((ok (Ufs.stat fs d)).Ufs.size > 12 * 512);
  (disk, fs, d)

(* Minor words counted exactly: [Gc.counters]'s minor count lags the
   real one on OCaml 5 and would pass these bounds on an undercount. *)
let words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  let after = Gc.minor_words () in
  (r, int_of_float (after -. before))

(* A lookup that hits the cached view in an unchanged write epoch only
   replays the directory's block reads: it allocates a few words, never a
   copy of the directory or of one block, nor a per-block compare. *)
let test_cached_lookup_allocation () =
  let _, fs, d = big_dir_512 () in
  let expected = ok (Ufs.dir_lookup fs d "entry-250") in
  let found, words = words_of (fun () -> Ufs.dir_lookup fs d "entry-250") in
  Alcotest.(check int) "hit" expected (ok found);
  let bound = 32 in
  if words >= bound then
    Alcotest.failf "cached lookup allocated %d words (bound %d, half a block)" words bound

(* The cached reads of one write epoch make exactly the block accesses
   of the reads that decode: at 512-byte blocks and a 16-block cache, a
   lookup in the 17-block directory, a stat and a whole read of a
   7,000-byte file (14 blocks, past the indirect block) touch 35 blocks,
   and miss in the same places whether the epoch just moved or not. *)
let test_cached_reads_replay_accesses () =
  let disk = Disk.create ~nblocks:4096 ~block_size:512 () in
  let fs = ok (Ufs.mkfs ~cache_capacity:16 ~now:(fun () -> 1) disk) in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "big") in
  for i = 0 to 499 do
    ignore (ok (Ufs.create fs ~dir:d (Printf.sprintf "entry-%03d" i)))
  done;
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "file") in
  let contents = String.init 7000 (fun i -> Char.chr (i mod 251)) in
  ok (Ufs.write fs f ~off:0 contents);
  let c = Ufs.cache fs in
  let counted op =
    Block_cache.reset_stats c;
    Disk.reset_stats disk;
    let r = op () in
    (r, (Block_cache.hits c, Block_cache.misses c, Disk.reads disk))
  in
  let round () =
    let found, lookup = counted (fun () -> ok (Ufs.dir_lookup fs d "entry-250")) in
    let attrs, stat = counted (fun () -> ok (Ufs.stat fs f)) in
    let data, read = counted (fun () -> ok (Ufs.read fs f ~off:0 ~len:max_int)) in
    ((found, attrs, data), [ lookup; stat; read ])
  in
  let counts = Alcotest.(list (triple int int int)) in
  (* Dropping the cache moves the epoch: this round decodes. *)
  Block_cache.invalidate c;
  let (found, attrs, first), decoded = round () in
  let (found', attrs', again), cached = round () in
  Alcotest.(check string) "contents" contents first;
  Alcotest.(check bool) "same answers" true (found = found' && attrs = attrs');
  Alcotest.(check bool) "the same string" true (first == again);
  Alcotest.(check counts) "hits, misses and device reads" decoded cached;
  Alcotest.(check bool) "the replay reaches the device" true
    (List.for_all (fun (_, misses, _) -> misses > 0) cached);
  let again, words = words_of (fun () -> Ufs.read fs f ~off:0 ~len:7000) in
  Alcotest.(check bool) "still the same string" true (ok again == first);
  let bound = 512 / (Sys.word_size / 8) in
  if words >= bound then
    Alcotest.failf "cached whole-file read allocated %d words (bound %d, one block)" words bound

(* The in-place check's miss path: a name changed on the media under a
   cached view shows up, and the lookup that finds the change reads
   exactly the blocks a cold lookup reads. *)
let test_changed_block_under_cached_view () =
  let disk, fs, d = big_dir_512 () in
  let inum = ok (Ufs.dir_lookup fs d "entry-101") in
  (* Entry 101's name sits at bytes 1521-1529 of the directory: the third
     data block, its last byte in the block's last word. *)
  let find b =
    let rec go i =
      if i + 9 > Bytes.length b then None
      else if Bytes.sub_string b i 9 = "entry-101" then Some i
      else go (i + 1)
    in
    go 0
  in
  let blk, b, at =
    Option.get
      (List.find_map
         (fun i ->
           let b = ok (Disk.read disk i) in
           Option.map (fun at -> (i, b, at)) (find b))
         (List.init (Disk.nblocks disk) Fun.id))
  in
  Bytes.set b (at + 8) 'X';
  ok (Disk.write disk blk b);
  Block_cache.invalidate (Ufs.cache fs);
  let accesses fs f =
    let c = Ufs.cache fs in
    Block_cache.reset_stats c;
    let r = f () in
    (r, Block_cache.hits c + Block_cache.misses c)
  in
  let found, live = accesses fs (fun () -> Ufs.dir_lookup fs d "entry-10X") in
  Alcotest.(check int) "new name found" inum (ok found);
  expect_err Errno.ENOENT (Ufs.dir_lookup fs d "entry-101");
  let names = List.map (fun (n, _, _) -> n) (ok (Ufs.dir_entries fs d)) in
  Alcotest.(check bool) "entries show the new name" true
    (List.mem "entry-10X" names && not (List.mem "entry-101" names));
  Alcotest.(check int) "entry count" 500 (List.length names);
  let copy = Disk.create ~nblocks:(Disk.nblocks disk) ~block_size:(Disk.block_size disk) () in
  Disk.restore copy (Disk.snapshot disk);
  let fresh = ok (Ufs.mount ~now:(fun () -> 0) copy) in
  let found, cold = accesses fresh (fun () -> Ufs.dir_lookup fresh d "entry-10X") in
  Alcotest.(check int) "fresh mount agrees" inum (ok found);
  Alcotest.(check int) "block-cache accesses equal a fresh mount's" cold live

(* A write to another file moves the write epoch, but every block of
   this one still equals its view: the whole read checks them in place
   and returns the very string the read before it returned, copying
   nothing. *)
let test_read_survives_unrelated_write () =
  let _, fs = fresh_ufs ~blocks:1024 ~block_size:512 () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
  let g = ok (Ufs.create fs ~dir:(Ufs.root fs) "g") in
  let contents = String.init 7000 (fun i -> Char.chr (i mod 251)) in
  ok (Ufs.write fs f ~off:0 contents);
  let first = ok (Ufs.read fs f ~off:0 ~len:max_int) in
  ok (Ufs.write fs g ~off:0 "unrelated");
  let again, words = words_of (fun () -> Ufs.read fs f ~off:0 ~len:max_int) in
  Alcotest.(check string) "contents" contents (ok again);
  Alcotest.(check bool) "the same string" true (ok again == first);
  (* Decoding the inode again costs a few dozen words; a copy of the
     file would cost 875. *)
  let bound = String.length contents / (Sys.word_size / 8) / 4 in
  if words >= bound then
    Alcotest.failf "checked whole-file read allocated %d words (bound %d, a quarter of a copy)"
      words bound

(* A lookup in the 17-block directory (30 records of 17 bytes to a
   block) reads its inode, its 17 data blocks and the indirect block
   once: 19 block-cache accesses. *)
let test_lookup_reads_indirect_block_once () =
  let _, fs, d = big_dir_512 () in
  let c = Ufs.cache fs in
  Block_cache.reset_stats c;
  ignore (ok (Ufs.dir_lookup fs d "entry-250") : Ufs.inum);
  Alcotest.(check int) "block-cache accesses" 19 (Block_cache.hits c + Block_cache.misses c)

(* ------------------------------------------------------------------ *)
(* Every source of change moves the write epoch: after each one, the
   live file system's stat, whole-file read and lookup answers (warmed
   in the epoch before it) agree with a fresh mount of a copy of the
   media. *)

let show_io f = function Ok x -> f x | Error e -> Errno.to_string e

let answers fs ~files ~names =
  List.concat_map
    (fun i ->
      [
        Printf.sprintf "stat %d: %s" i
          (show_io
             (fun (a : Ufs.attrs) ->
               Printf.sprintf "size=%d nlink=%d mtime=%d mode=%o gen=%d" a.size a.nlink a.mtime
                 a.mode a.gen)
             (Ufs.stat fs i));
        Printf.sprintf "read %d: %s" i
          (show_io
             (fun data -> Printf.sprintf "%d bytes %s" (String.length data) (Digest.to_hex (Digest.string data)))
             (Ufs.read fs i ~off:0 ~len:max_int));
      ])
    files
  @ List.map
      (fun (d, n) -> Printf.sprintf "lookup %d/%s: %s" d n (show_io string_of_int (Ufs.dir_lookup fs d n)))
      names

let copy_of disk =
  let copy = Disk.create ~nblocks:(Disk.nblocks disk) ~block_size:(Disk.block_size disk) () in
  Disk.restore copy (Disk.snapshot disk);
  copy

(* Warm every cached read twice, so the next answers come from the
   epoch's caches unless something moved it. *)
let warm fs ~files ~names = ignore (answers fs ~files ~names, answers fs ~files ~names)

(* [fs]'s answers now, against a fresh mount's once [fs] has synced. *)
let agrees_with_fresh_mount ~msg disk fs ~files ~names =
  let live = answers fs ~files ~names in
  Disk.clear_failures disk;
  ok ~msg:"sync" (Ufs.sync fs);
  let fresh = ok (Ufs.mount ~now:(fun () -> 0) (copy_of disk)) in
  Alcotest.(check (list string)) msg (answers fresh ~files ~names) live

let padded i = Printf.sprintf "name-%02d-%s" i (String.make 40 'p')

(* A directory of 20 54-byte entries: three 512-byte blocks. *)
let populate fs dir = List.init 20 (fun i -> ok (Ufs.create fs ~dir (padded i)))

let test_epoch_aborted_txn () =
  let disk = Disk.create ~nblocks:256 ~block_size:512 () in
  let fs = ok (Ufs.mkfs ~cache_capacity:64 ~journal_blocks:64 ~now:(fun () -> 1) disk) in
  let root = Ufs.root fs in
  let src = ok (Ufs.mkdir fs ~dir:root "src") in
  let _ = populate fs src in
  let dst = ok (Ufs.mkdir fs ~dir:root "dst") in
  let f = ok (Ufs.create fs ~dir:root "file") in
  ok (Ufs.write fs f ~off:0 (String.make 1500 'a'));
  (* Fill the disk, so the next block allocation fails and aborts its
     transaction. *)
  let rec fill i =
    let g = ok (Ufs.create fs ~dir:root (Printf.sprintf "fill-%d" i)) in
    let rec grow k =
      match Ufs.write fs g ~off:(k * 512) (String.make 512 'f') with
      | Ok () -> grow (k + 1)
      | Error Errno.ENOSPC -> ()
      | Error Errno.EFBIG -> fill (i + 1)
      | Error e -> Alcotest.failf "fill: %s" (Errno.to_string e)
    in
    grow 0
  in
  fill 0;
  Alcotest.(check int) "disk full" 0 (ok (Ufs.nfree_blocks fs));
  let files = [ root; src; dst; f ] in
  let names = (dst, padded 3) :: List.init 20 (fun i -> (src, padded i)) in
  warm fs ~files ~names;
  (* The move rewrites [src] (same block count, so nothing is freed),
     then finds no block for the empty [dst]: the transaction aborts
     with [src]'s new view and inode already read back. *)
  expect_err Errno.ENOSPC (Ufs.rename fs ~sdir:src ~sname:(padded 3) ~ddir:dst ~dname:(padded 3));
  agrees_with_fresh_mount ~msg:"after an aborted directory rewrite" disk fs ~files ~names;
  warm fs ~files ~names;
  (* Three blocks rewritten, the fourth cannot be allocated. *)
  expect_err Errno.ENOSPC (Ufs.write fs f ~off:0 (String.make 2000 'b'));
  agrees_with_fresh_mount ~msg:"after an aborted file rewrite" disk fs ~files ~names

let test_epoch_failed_device_write () =
  let disk, fs = fresh_ufs ~blocks:1024 ~block_size:512 () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let _ = populate fs d in
  let f = ok (Ufs.create fs ~dir:root "file") in
  ok (Ufs.write fs f ~off:0 (String.make 1500 'a'));
  let files = [ d; f ] in
  let names = (d, "renamed") :: List.init 20 (fun i -> (d, padded i)) in
  warm fs ~files ~names;
  (* Unjournaled, the first block reaches the media and the second
     fails: a torn file. *)
  Disk.fail_writes_after disk 1;
  expect_err Errno.EIO (Ufs.write fs f ~off:0 (String.make 1500 'b'));
  agrees_with_fresh_mount ~msg:"after a write_at torn by the device" disk fs ~files ~names;
  warm fs ~files ~names;
  Disk.fail_writes_after disk 1;
  expect_err Errno.EIO (Ufs.rename fs ~sdir:d ~sname:(padded 0) ~ddir:d ~dname:"renamed");
  agrees_with_fresh_mount ~msg:"after a directory rewrite torn by the device" disk fs ~files ~names

(* The media changes under the file system: a second mount of a copy
   makes the change, and every block that differs is carried over by
   [via]. *)
let test_epoch_direct_writes () =
  let disk, fs = fresh_ufs ~blocks:1024 ~block_size:512 () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let _ = populate fs d in
  let f = ok (Ufs.create fs ~dir:root "file") in
  ok (Ufs.write fs f ~off:0 (String.make 1500 'a'));
  let files = [ d; f ] in
  let names = List.init 20 (fun i -> (d, padded i)) @ [ (d, "first"); (d, "second") ] in
  let patch ~via ~data ~mode ~sname ~dname =
    let copy = copy_of disk in
    let other = ok (Ufs.mount ~now:(fun () -> 500) copy) in
    ok (Ufs.write other f ~off:0 data);
    ok (Ufs.set_mode other f mode);
    ok (Ufs.rename other ~sdir:d ~sname ~ddir:d ~dname);
    for i = 0 to Disk.nblocks disk - 1 do
      let b = ok (Disk.read copy i) in
      if not (Bytes.equal b (ok (Disk.read disk i))) then via i b
    done
  in
  warm fs ~files ~names;
  patch ~data:"first" ~mode:0o600 ~sname:(padded 1) ~dname:"first" ~via:(fun i b ->
      ok (Block_cache.write (Ufs.cache fs) i b));
  agrees_with_fresh_mount ~msg:"after direct block-cache writes" disk fs ~files ~names;
  warm fs ~files ~names;
  patch ~data:"second" ~mode:0o640 ~sname:(padded 2) ~dname:"second" ~via:(fun i b ->
      ok (Disk.write disk i b));
  Block_cache.invalidate (Ufs.cache fs);
  agrees_with_fresh_mount ~msg:"after device writes and an invalidate" disk fs ~files ~names

let test_epoch_crash_reboot () =
  let disk = Disk.create ~nblocks:1024 ~block_size:512 () in
  let clock = ref 0 in
  let fs =
    ok
      (Ufs.mkfs ~cache_capacity:64 ~journal_blocks:128 ~journal_flush_blocks:1000
         ~journal_flush_age:1000 ~now:(fun () -> incr clock; !clock) disk)
  in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let _ = populate fs d in
  let f = ok (Ufs.create fs ~dir:root "file") in
  ok (Ufs.write fs f ~off:0 (String.make 1500 'a'));
  ok (Ufs.sync fs);
  let files = [ root; d; f ] in
  let names = List.init 20 (fun i -> (d, padded i)) @ [ (d, "renamed"); (root, "new") ] in
  (* Group commits staged, not yet in the log: a crash loses them. *)
  ok (Ufs.write fs f ~off:0 (String.make 1500 'b'));
  ok (Ufs.set_mode fs f 0o600);
  ok (Ufs.rename fs ~sdir:d ~sname:(padded 0) ~ddir:d ~dname:"renamed");
  ignore (ok (Ufs.create fs ~dir:root "new"));
  Alcotest.(check bool) "commits staged" true (Ufs.journal_pending fs);
  warm fs ~files ~names;
  Alcotest.(check string) "staged write visible" (String.make 1500 'b')
    (ok (Ufs.read fs f ~off:0 ~len:max_int));
  ok (Ufs.crash_reboot fs);
  agrees_with_fresh_mount ~msg:"after a crash reboot" disk fs ~files ~names;
  Alcotest.(check string) "staged write lost" (String.make 1500 'a')
    (ok (Ufs.read fs f ~off:0 ~len:max_int))

(* A crash reboot drops the staged write the file's view was read
   from; the same write made again must not be taken for one the file
   holds, and reaches the media. *)
let test_rewrite_after_crash_reaches_media () =
  let disk = Disk.create ~nblocks:1024 ~block_size:512 () in
  let fs =
    ok
      (Ufs.mkfs ~cache_capacity:64 ~journal_blocks:128 ~journal_flush_blocks:1000
         ~journal_flush_age:1000 ~now:(fun () -> 1) disk)
  in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
  let old = String.make 3000 'a' and lost = String.make 3000 'b' in
  ok (Ufs.write fs f ~off:0 old);
  ok (Ufs.sync fs);
  ok (Ufs.write fs f ~off:0 lost);
  Alcotest.(check string) "staged write read" lost (ok (Ufs.read fs f ~off:0 ~len:max_int));
  ok (Ufs.crash_reboot fs);
  ok (Ufs.write fs f ~off:0 lost);
  Alcotest.(check string) "written again" lost (ok (Ufs.read fs f ~off:0 ~len:max_int));
  ok (Ufs.sync fs);
  let fresh = ok (Ufs.mount ~now:(fun () -> 0) (copy_of disk)) in
  Alcotest.(check string) "on the media" lost (ok (Ufs.read fresh f ~off:0 ~len:max_int))

(* Unjournaled, a write past the end cut off before its inode write
   leaves its bytes past the end of the file: in the last block, or in
   blocks its indirect block already maps.  An extension, by truncate
   or by a write past the end, still reads zeros there, and frees those
   blocks. *)
let test_extension_after_cut_write_reads_zeros () =
  List.iter
    (fun ((what, size, off, len, cut), (how, extend)) ->
      let ctx = what ^ ", then " ^ how in
      let disk, fs = fresh_ufs ~blocks:256 ~block_size:512 () in
      let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
      ok (Ufs.write fs f ~off:0 (String.make size 'a'));
      Disk.fail_writes_after disk cut;
      expect_err Errno.EIO (Ufs.write fs f ~off (String.make len 'b'));
      Disk.clear_failures disk;
      let fs = ok (Ufs.mount ~now:(fun () -> 0) disk) in
      Alcotest.(check int) (ctx ^ ": the cut write left the size") size (ok (Ufs.stat fs f)).Ufs.size;
      ok (extend fs f (off + len + 10));
      Alcotest.(check string) (ctx ^ ": the gap reads zeros") (String.make (off + len - size) '\000')
        (ok (Ufs.read fs f ~off:size ~len:(off + len - size)));
      fsck fs)
    (List.concat_map
       (fun cut -> [ (cut, ("truncate", fun fs f n -> Ufs.truncate fs f n)); (cut, ("a write past the end", fun fs f n -> Ufs.write fs f ~off:(n - 1) "z")) ])
       [
         (* the data block reaches the device, the inode does not *)
         ("an append inside the last block", 100, 100, 50, 1);
         (* the bitmap, two new blocks and the indirect block do *)
         ("a write past the 13th block", 13 * 512, 14 * 512, 676, 4);
       ])

let test_sparse_file_reads_zeros () =
  let _, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "sparse") in
  ok (Ufs.write fs f ~off:(5 * 1024) "end");
  Alcotest.(check string) "hole is zeros" (String.make 16 '\000')
    (ok (Ufs.read fs f ~off:1024 ~len:16));
  fsck fs

(* ------------------------------------------------------------------ *)
(* No crash, journal abort or failed write can leave a stale parsed
   directory, decoded inode or whole-file read behind.  Random namespace
   histories with file writes, interleaved with injected write failures,
   aborted transactions and crash reboots: after every step the live file
   system's lookups must agree with its own entry lists, and at each
   checkpoint its tree, and the stat and whole-file read of everything
   in it, with a fresh mount of a copy of the media, with fsck clean on
   both. *)

type ufs_op =
  | U_create of int * int  (** dir, name *)
  | U_mkdir of int * int
  | U_unlink of int * int
  | U_rmdir of int * int
  | U_rename of int * int * int * int
  | U_write of int * int * int  (** dir, name, size step *)
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
  | U_write (d, n, k) -> Printf.sprintf "write %d/%d %d" d n k
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
        (3, map3 (fun d n k -> U_write (d, n, k)) dir name (int_bound 9));
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

(* Every directory's entries, and the stat and whole-file read of every
   inode the tree names. *)
let ufs_state fs =
  let tree = ufs_tree fs (Ufs.root fs) in
  let inums =
    List.sort_uniq compare
      (Ufs.root fs
      :: List.concat_map
           (function _, Ok entries -> List.map (fun (_, i, _) -> i) entries | _, Error _ -> [])
           tree)
  in
  (tree, answers fs ~files:inums ~names:[])

let matches_fresh_mount ~ctx disk fs =
  (* Taken before the sync, whose checkpoint writes would move the write
     epoch. *)
  let before = ufs_state fs in
  Disk.clear_failures disk;
  (match Ufs.sync fs with
   | Ok () -> ()
   | Error e -> QCheck.Test.fail_reportf "%s: sync: %s" ctx (Errno.to_string e));
  let fresh =
    match Ufs.mount ~now:(fun () -> 0) (copy_of disk) with
    | Ok f -> f
    | Error e -> QCheck.Test.fail_reportf "%s: mount: %s" ctx (Errno.to_string e)
  in
  let cold = ufs_state fresh in
  List.iter
    (fun (which, (tree, files)) ->
      if tree <> fst cold then
        QCheck.Test.fail_reportf "%s: live (%s) and fresh mount differ@.live:  %s@.fresh: %s"
          ctx which (show_tree tree) (show_tree (fst cold));
      if files <> snd cold then
        QCheck.Test.fail_reportf "%s: live (%s) and fresh mount differ@.live:  %s@.fresh: %s"
          ctx which (String.concat "; " files) (String.concat "; " (snd cold)))
    [ ("before sync", before); ("after sync", ufs_state fs) ];
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
         (* A directory moved under itself is refused ([EINVAL]). *)
         ignore (Ufs.rename fs ~sdir:(dir_at a) ~sname:(ufs_prop_name b) ~ddir:(dir_at c) ~dname:(ufs_prop_name d))
       | U_write (d, n, k) ->
         (match Ufs.dir_lookup fs (dir_at d) (ufs_prop_name n) with
          | Ok i when (match Ufs.stat fs i with Ok a -> a.Ufs.kind = Ufs.Reg | Error _ -> false) ->
            ignore (Ufs.write fs i ~off:(k mod 3 * 300) (String.make (k * 157) (Char.chr (97 + k))))
          | Ok _ | Error _ -> ())
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

(* ------------------------------------------------------------------ *)
(* The bitmaps against a per-bit model.  Six files on a 256-block disk
   of 512-byte blocks grow, shrink and are recreated, some growths past
   the free space and, journaled, some cut off by a failing device.  The
   model predicts every block a call allocates (the lowest free bits, a
   file's new indirect block just before the first block it maps) and
   every block it frees; after each step the block bitmap on the media
   must equal the model bit for bit, the free count must be the model's,
   a recreated file must get the lowest free inode and fsck must be
   clean. *)

type alloc_op =
  | A_grow of int * int  (** file, to this many blocks *)
  | A_trunc of int * int  (** file, to this many bytes *)
  | A_recreate of int  (** unlink the file and create it again, empty *)

let print_alloc_op (op, fail) =
  (match op with
   | A_grow (f, n) -> Printf.sprintf "grow %d to %d blocks" f n
   | A_trunc (f, n) -> Printf.sprintf "truncate %d to %d bytes" f n
   | A_recreate f -> Printf.sprintf "recreate %d" f)
  ^ match fail with Some k -> Printf.sprintf " (device fails after %d writes)" k | None -> ""

let alloc_arb =
  let open QCheck.Gen in
  let file = int_bound 5 in
  let op =
    frequency
      [
        (4, map2 (fun f n -> A_grow (f, n)) file (frequency [ (3, int_range 1 30); (1, int_range 31 90) ]));
        (3, map2 (fun f n -> A_trunc (f, n)) file (int_bound (30 * 512)));
        (1, map (fun f -> A_recreate f) file);
      ]
  in
  let step = pair op (frequency [ (5, return None); (1, map Option.some (int_bound 12)) ]) in
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil list)
    ~print:(fun (journaled, steps) ->
      Printf.sprintf "%s: %s"
        (if journaled then "journaled" else "unjournaled")
        (String.concat "; " (List.map print_alloc_op steps)))
    (pair bool (list_size (int_range 1 30) step))

(* A file as the model sees it: no holes, so its blocks are its data
   blocks in file order and an indirect block iff it has more than 12. *)
type model_file = { mutable inum : int; mutable size : int; mutable data : int list; mutable ind : int }

let media_bits disk ~start ~limit =
  let bpb = 512 * 8 in
  let blocks = Array.init ((limit + bpb - 1) / bpb) (fun i -> ok (Disk.read disk (start + i))) in
  Array.init limit (fun i -> Codec.get_u8 blocks.(i / bpb) (i mod bpb / 8) land (1 lsl (i mod 8)) <> 0)

let run_alloc_law (journaled, steps) =
  let bs = 512 in
  let disk = Disk.create ~nblocks:256 ~block_size:bs () in
  let fs =
    ok ~msg:"mkfs"
      (Ufs.mkfs ~cache_capacity:16 ~ninodes:16 ~journal_blocks:(if journaled then 64 else 0)
         ~now:(fun () -> 0) disk)
  in
  let root = Ufs.root fs in
  let name i = Printf.sprintf "f%d" i in
  let files =
    Array.init 6 (fun i -> { inum = ok (Ufs.create fs ~dir:root (name i)); size = 0; data = []; ind = 0 })
  in
  ok (Ufs.sync fs);
  let sb = ok (Disk.read disk 0) in
  let bits () = media_bits disk ~start:(Codec.get_u32 sb 20) ~limit:256 in
  let ibits () = media_bits disk ~start:(Codec.get_u32 sb 12) ~limit:17 in
  let used = bits () and iused = ibits () in
  let lowest_free n =
    let rec go i acc k =
      if k = 0 || i >= Array.length used then List.rev acc
      else if used.(i) then go (i + 1) acc k
      else go (i + 1) (i :: acc) (k - 1)
    in
    go 0 [] n
  in
  let set_used v = List.iter (fun b -> used.(b) <- v) in
  let blocks_of size = (size + bs - 1) / bs in
  List.iteri
    (fun step (op, fail) ->
      let ctx = Printf.sprintf "step %d (%s)" step (print_alloc_op (op, fail)) in
      (* Unjournaled, a cut-off call leaves its prefix on the media by
         design; journaled, only the calls that change one file's size
         are cut off, so the size tells whether the call took effect. *)
      let fail = match op with A_recreate _ -> None | _ -> if journaled then fail else None in
      Option.iter (Disk.fail_writes_after disk) fail;
      (* The call, the size it sets and what the model does if it takes
         effect: a failed flush leaves a journaled call staged. *)
      let f, r, size, apply =
        match op with
        | A_grow (i, n) ->
          let f = files.(i) in
          let have = blocks_of f.size in
          if n <= have then (f, Ok (), f.size, ignore)
          else
            let need = n - have + if n > 12 && have <= 12 then 1 else 0 in
            let r = Ufs.write fs f.inum ~off:f.size (String.make ((n * bs) - f.size) 'x') in
            if fail = None && List.length (lowest_free need) < need <> (r = Error Errno.ENOSPC) then
              QCheck.Test.fail_reportf "%s: %d blocks needed, %d free, the call returned %s" ctx need
                (List.length (lowest_free need))
                (match r with Ok () -> "Ok" | Error e -> Errno.to_string e);
            ( f, r, n * bs,
              fun () ->
                let picks = ref (lowest_free need) in
                let take () =
                  let b = List.hd !picks in
                  picks := List.tl !picks;
                  used.(b) <- true;
                  b
                in
                f.data <-
                  f.data
                  @ List.init (n - have) (fun k ->
                        if have + k >= 12 && f.ind = 0 then f.ind <- take ();
                        take ()) )
        | A_trunc (i, len) ->
          let f = files.(i) in
          if len >= f.size then (f, Ok (), f.size, ignore)
          else
            ( f, Ufs.truncate fs f.inum len, len,
              fun () ->
                let keep = blocks_of len in
                set_used false (List.filteri (fun k _ -> k >= keep) f.data);
                f.data <- List.filteri (fun k _ -> k < keep) f.data;
                if keep <= 12 && f.ind <> 0 then begin
                  used.(f.ind) <- false;
                  f.ind <- 0
                end )
        | A_recreate i ->
          let f = files.(i) in
          let r = Ufs.unlink fs ~dir:root (name i) in
          let r =
            Result.bind r (fun () ->
                let inum = ok (Ufs.create fs ~dir:root (name i)) in
                iused.(f.inum) <- false;
                let lowest = Option.get (Array.find_index not iused) in
                if inum <> lowest then
                  QCheck.Test.fail_reportf "%s: new inode %d, lowest free %d" ctx inum lowest;
                iused.(inum) <- true;
                f.inum <- inum;
                Ok ())
          in
          ( f, r, 0,
            fun () ->
              set_used false (if f.ind = 0 then f.data else f.ind :: f.data);
              f.data <- [];
              f.ind <- 0 )
      in
      Disk.clear_failures disk;
      let now = (ok ~msg:ctx (Ufs.stat fs f.inum)).Ufs.size in
      if now = size then begin
        apply ();
        f.size <- size
      end
      else if r = Ok () || now <> f.size then
        QCheck.Test.fail_reportf "%s: size %d, expected %d (or %d if it failed)" ctx now size f.size;
      ok ~msg:ctx (Ufs.sync fs);
      if bits () <> used then
        QCheck.Test.fail_reportf "%s: the block bitmap is not the model's" ctx;
      if ibits () <> iused then
        QCheck.Test.fail_reportf "%s: the inode bitmap is not the model's" ctx;
      let free = Array.fold_left (fun n u -> if u then n else n + 1) 0 used in
      if ok ~msg:ctx (Ufs.nfree_blocks fs) <> free then
        QCheck.Test.fail_reportf "%s: %d free blocks, the model has %d" ctx
          (ok (Ufs.nfree_blocks fs)) free;
      match Ufs.check fs with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "%s: fsck: %s" ctx m)
    steps;
  true

(* ------------------------------------------------------------------ *)
(* Views and the one block writer against a per-byte model.  Four files
   and a directory on a 768-block disk of 512-byte blocks: writes (a
   third of them rewriting bytes the file holds already, which the
   writer then skips), truncates, partial reads, names added to and
   removed from the directory, the buffer cache dropped, crash reboots
   and, on some calls, a device that fails after a few writes.  After
   each step every whole read equals the model and fsck is clean; after
   a sync and a crash reboot the media holds what the model holds.
   Journaled, a call takes effect exactly when it returns [Ok], and a
   crash falls back to what the last flush made durable.  Unjournaled,
   a file call the device cuts off is torn by design: the live reads
   must then equal a fresh mount's, and the model takes them. *)

type view_op =
  | W_write of int * int * int * int  (** file, offset, length, seed; seed < 0 rewrites what is there *)
  | W_trunc of int * int  (** file, to this many bytes *)
  | W_read of int * int * int  (** file, offset, length *)
  | W_add of int  (** a name in the directory *)
  | W_remove of int
  | W_invalidate
  | W_crash
  | W_sync

let print_view_op (op, fail) =
  (match op with
   | W_write (f, off, len, c) ->
     Printf.sprintf "%s %d at %d, %d bytes" (if c < 0 then "rewrite" else "write") f off len
   | W_trunc (f, n) -> Printf.sprintf "truncate %d to %d" f n
   | W_read (f, off, len) -> Printf.sprintf "read %d at %d, %d bytes" f off len
   | W_add n -> Printf.sprintf "add name %d" n
   | W_remove n -> Printf.sprintf "remove name %d" n
   | W_invalidate -> "invalidate"
   | W_crash -> "crash"
   | W_sync -> "sync")
  ^ match fail with Some k -> Printf.sprintf " (device fails after %d writes)" k | None -> ""

let view_arb =
  let open QCheck.Gen in
  (* Few offsets, lengths and seeds, so a write often repeats bytes an
     earlier one wrote, which a crash or a torn call may have undone. *)
  let file = int_bound 3
  and off = map (fun k -> k * 128) (int_bound 56)
  and len = oneof [ int_range 1 (3 * 512); map (fun k -> k * 256) (int_range 1 6) ] in
  let op =
    frequency
      [
        (4, map3 (fun (f, o) l c -> W_write (f, o, l, c)) (pair file off) len (int_bound 3));
        (2, map3 (fun (f, o) l () -> W_write (f, o, l, -1)) (pair file off) len unit);
        (2, map2 (fun f n -> W_trunc (f, n)) file (int_bound (17 * 512)));
        (2, map3 (fun f o l -> W_read (f, o, l)) file off len);
        (2, map (fun n -> W_add n) (int_bound 15));
        (1, map (fun n -> W_remove n) (int_bound 15));
        (1, return W_invalidate);
        (1, return W_crash);
        (1, return W_sync);
      ]
  in
  let call = pair op (frequency [ (4, return None); (1, map Option.some (int_bound 10)) ]) in
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil list)
    ~print:(fun (journaled, steps) ->
      Printf.sprintf "%s: %s"
        (if journaled then "journaled" else "unjournaled")
        (String.concat " | " (List.map (fun calls -> String.concat "; " (List.map print_view_op calls)) steps)))
    QCheck.Gen.(pair bool (list_size (int_range 1 30) (list_size (int_range 1 3) call)))

let view_name n = Printf.sprintf "name-%02d-%s" n (String.make 80 'p')

(* POSIX write and truncate on a byte string. *)
let model_write s off data =
  let len = String.length data and n = String.length s in
  String.init (max n (off + len)) (fun i ->
      if i >= off && i < off + len then data.[i - off] else if i < n then s.[i] else '\000')

let model_trunc s n =
  if n <= String.length s then String.sub s 0 n else s ^ String.make (n - String.length s) '\000'

let run_view_law (journaled, steps) =
  let disk = Disk.create ~nblocks:768 ~block_size:512 () in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  let fs =
    ok ~msg:"mkfs"
      (Ufs.mkfs ~cache_capacity:16 ~ninodes:64 ~journal_blocks:(if journaled then 128 else 0)
         ~journal_flush_blocks:8 ~journal_flush_age:4 ~now disk)
  in
  let root = Ufs.root fs in
  let files = Array.init 4 (fun i -> ok (Ufs.create fs ~dir:root (Printf.sprintf "f%d" i))) in
  let dir = ok (Ufs.mkdir fs ~dir:root "d") in
  ok (Ufs.sync fs);
  (* The model: each file's bytes and the directory's names, sorted,
     and, journaled, what the last flush made durable. *)
  let contents = Array.make 4 "" and names = ref [] in
  let durable = ref (Array.copy contents, []) in
  let state fs =
    ( Array.to_list (Array.map (fun i -> Ufs.read fs i ~off:0 ~len:max_int) files),
      Result.map (fun es -> List.sort compare (List.map (fun (n, _, _) -> n) es)) (Ufs.dir_entries fs dir) )
  in
  let show (reads, entries) =
    String.concat "; "
      (List.mapi
         (fun i r -> Printf.sprintf "f%d: %s" i (show_io (fun d -> Digest.to_hex (Digest.string d)) r))
         reads)
    ^ " | d: " ^ show_io (String.concat ",") entries
  in
  let expected () = (Array.to_list (Array.map Result.ok contents), Ok !names) in
  let fsck ~ctx which f =
    match Ufs.check f with
    | Ok () -> ()
    | Error m ->
      (* Unjournaled, a cut-off call may leak what it allocated. *)
      let leak p =
        String.ends_with ~suffix:"allocated but unreachable" p
        || String.ends_with ~suffix:"allocated but unreferenced" p
      in
      if journaled || not (List.for_all leak (String.split_on_char ';' m)) then
        QCheck.Test.fail_reportf "%s: fsck (%s): %s" ctx which m
  in
  let fresh_mount ~ctx =
    match Ufs.mount ~now:(fun () -> 0) (copy_of disk) with
    | Ok f -> f
    | Error e -> QCheck.Test.fail_reportf "%s: mount: %s" ctx (Errno.to_string e)
  in
  let holds ~ctx which got =
    if got <> expected () then
      QCheck.Test.fail_reportf "%s: %s differs from the model@.got:   %s@.model: %s" ctx which
        (show got) (show (expected ()))
  in
  let call ~ctx (op, fail) =
      let ctx = Printf.sprintf "%s (%s)" ctx (print_view_op (op, fail)) in
      let cut =
        match op with
        | W_write _ | W_trunc _ | W_add _ | W_remove _ -> fail
        | W_read _ | W_invalidate | W_crash | W_sync -> None
      in
      Option.iter (Disk.fail_writes_after disk) cut;
      (* The call, and what the model does if it takes effect. *)
      let r, apply =
        match op with
        | W_write (f, off, len, c) ->
          let have = contents.(f) in
          if c >= 0 then
            let data = String.init len (fun k -> Char.chr (97 + ((c + k) mod 26))) in
            (Ufs.write fs files.(f) ~off data, fun () -> contents.(f) <- model_write have off data)
          else if have = "" then (Ok (), ignore)
          else
            let off = off mod String.length have in
            let data = String.sub have off (min len (String.length have - off)) in
            (Ufs.write fs files.(f) ~off data, ignore)
        | W_trunc (f, n) ->
          (Ufs.truncate fs files.(f) n, fun () -> contents.(f) <- model_trunc contents.(f) n)
        | W_read (f, off, len) ->
          let have = contents.(f) in
          let want = if off >= String.length have then "" else String.sub have off (min len (String.length have - off)) in
          (match Ufs.read fs files.(f) ~off ~len with
           | Ok got when got = want -> ()
           | r ->
             QCheck.Test.fail_reportf "%s: read %s, the model holds %d bytes" ctx
               (show_io (fun d -> Printf.sprintf "%d bytes" (String.length d)) r)
               (String.length want));
          (Ok (), ignore)
        | W_add n ->
          ( Result.map ignore (Ufs.create fs ~dir (view_name n)),
            fun () -> names := List.sort compare (view_name n :: !names) )
        | W_remove n ->
          (Ufs.unlink fs ~dir (view_name n), fun () -> names := List.filter (( <> ) (view_name n)) !names)
        | W_invalidate ->
          Block_cache.invalidate (Ufs.cache fs);
          (Ok (), ignore)
        | W_crash ->
          ignore (Ufs.crash_reboot fs);
          if journaled then begin
            Array.blit (fst !durable) 0 contents 0 4;
            names := snd !durable
          end;
          (Ok (), ignore)
        | W_sync ->
          ok ~msg:ctx (Ufs.sync fs);
          ignore (Ufs.crash_reboot fs);
          (Ok (), ignore)
      in
      Disk.clear_failures disk;
      (match r with
       | Ok () -> apply ()
       | Error _ when cut <> None && not journaled ->
         (* Torn: the live reads must be the media's, and the model takes them. *)
         let live = state fs in
         if live <> state (fresh_mount ~ctx) then
           QCheck.Test.fail_reportf "%s: a torn call left the live reads unlike the media's" ctx;
         List.iteri (fun i r -> contents.(i) <- ok ~msg:ctx r) (fst live);
         names := ok ~msg:ctx (snd live)
       | Error _ -> ());
      ignore (Ufs.journal_tick fs);
      if journaled && not (Ufs.journal_pending fs) then durable := (Array.copy contents, !names);
      if op = W_sync then begin
        holds ~ctx "a fresh mount" (state (fresh_mount ~ctx));
        fsck ~ctx "fresh" (fresh_mount ~ctx)
      end
  in
  (* A step is a burst of calls, so a call can meet the views the one
     before it left: the checks read every file. *)
  List.iteri
    (fun step calls ->
      let ctx = Printf.sprintf "step %d" step in
      List.iter (call ~ctx) calls;
      holds ~ctx "the live file system" (state fs);
      fsck ~ctx "live" fs)
    steps;
  ok ~msg:"end: sync" (Ufs.sync fs);
  ok ~msg:"end: crash reboot" (Ufs.crash_reboot fs);
  holds ~ctx:"end" "the rebooted file system" (state fs);
  holds ~ctx:"end" "a fresh mount" (state (fresh_mount ~ctx:"end"));
  true

let ufs_props =
  [
    QCheck.Test.make ~name:"directory views survive crashes, aborts and write failures"
      ~count:200 ufs_history_arb run_ufs_history;
    QCheck.Test.make ~name:"the bitmaps follow a per-bit model: free count, fsck, lowest first"
      ~count:200 alloc_arb run_alloc_law;
    QCheck.Test.make ~name:"whole reads follow a per-byte model through skipped writes and crashes"
      ~count:400 view_arb run_view_law;
  ]

let suite =
  [
    case "mkfs and mount" test_mkfs_mount;
    case "mount rejects unformatted disk" test_mount_rejects_unformatted;
    case "create, write, read" test_create_write_read;
    case "overwrite and extend" test_overwrite_and_extend;
    case "large file uses indirect blocks" test_large_file_spans_indirect_blocks;
    case "truncate zeroes the tail" test_truncate_zeroes_tail;
    case "a crash never frees a live block" test_crash_order_never_frees_live_blocks;
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
    case "an extension after a cut-off write reads zeros" test_extension_after_cut_write_reads_zeros;
    case "cached lookup allocates less than a block" test_cached_lookup_allocation;
    case "changed block under a cached view" test_changed_block_under_cached_view;
    case "cached reads replay their block accesses" test_cached_reads_replay_accesses;
    case "a whole read survives a write to another file" test_read_survives_unrelated_write;
    case "a lookup reads the indirect block once" test_lookup_reads_indirect_block_once;
    case "write epoch: aborted transaction" test_epoch_aborted_txn;
    case "write epoch: failed device write" test_epoch_failed_device_write;
    case "write epoch: direct writes under the cache" test_epoch_direct_writes;
    case "write epoch: crash reboot drops staged commits" test_epoch_crash_reboot;
    case "a write the crash undid is written again" test_rewrite_after_crash_reaches_media;
  ]
  @ List.map QCheck_alcotest.to_alcotest ufs_props
