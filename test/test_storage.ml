(* Disk simulation and the buffer cache: the I/O accounting that the
   paper's performance numbers are stated in. *)

open Util

let test_disk_read_write () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let buf = Bytes.make 64 'z' in
  ok (Disk.write d 3 buf);
  Alcotest.(check bytes) "roundtrip" buf (ok (Disk.read d 3));
  Alcotest.(check int) "reads" 1 (Disk.reads d);
  Alcotest.(check int) "writes" 1 (Disk.writes d)

let test_disk_bounds_and_size_checks () =
  let d = Disk.create ~nblocks:4 ~block_size:64 () in
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Disk.read d 4));
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Disk.read d (-1)));
  expect_err Errno.EINVAL (Disk.write d 0 (Bytes.make 32 'x'))

let test_disk_returns_private_copies () =
  let d = Disk.create ~nblocks:2 ~block_size:16 () in
  let b = ok (Disk.read d 0) in
  Bytes.fill b 0 16 'X';
  Alcotest.(check bytes) "media unaffected" (Bytes.make 16 '\000') (ok (Disk.read d 0))

let test_write_failure_injection () =
  let d = Disk.create ~nblocks:4 ~block_size:16 () in
  Disk.fail_writes_after d 2;
  ok (Disk.write d 0 (Bytes.make 16 'a'));
  ok (Disk.write d 1 (Bytes.make 16 'b'));
  expect_err Errno.EIO (Disk.write d 2 (Bytes.make 16 'c'));
  Disk.clear_failures d;
  ok (Disk.write d 2 (Bytes.make 16 'c'))

let test_snapshot_restore () =
  let d = Disk.create ~nblocks:2 ~block_size:16 () in
  ok (Disk.write d 0 (Bytes.make 16 'a'));
  let snap = Disk.snapshot d in
  ok (Disk.write d 0 (Bytes.make 16 'b'));
  Disk.restore d snap;
  Alcotest.(check bytes) "restored" (Bytes.make 16 'a') (ok (Disk.read d 0))

let test_cache_hit_avoids_device () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:4 d in
  let _ = ok (Block_cache.read c 0) in
  let reads_after_miss = Disk.reads d in
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "no extra device read" reads_after_miss (Disk.reads d);
  Alcotest.(check int) "hits" 1 (Block_cache.hits c);
  Alcotest.(check int) "misses" 1 (Block_cache.misses c)

let test_cache_write_through () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:4 d in
  ok (Block_cache.write c 1 (Bytes.make 64 'q'));
  Alcotest.(check int) "device write happened" 1 (Disk.writes d);
  (* The cached copy serves reads without touching the device. *)
  let r = Disk.reads d in
  Alcotest.(check bytes) "cached" (Bytes.make 64 'q') (ok (Block_cache.read c 1));
  Alcotest.(check int) "served from cache" r (Disk.reads d)

let test_cache_lru_eviction () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:2 d in
  let _ = ok (Block_cache.read c 0) in
  let _ = ok (Block_cache.read c 1) in
  let _ = ok (Block_cache.read c 0) in  (* touch 0: 1 becomes LRU *)
  let _ = ok (Block_cache.read c 2) in  (* evicts 1 *)
  Block_cache.reset_stats c;
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "0 still cached" 1 (Block_cache.hits c);
  let _ = ok (Block_cache.read c 1) in
  Alcotest.(check int) "1 was evicted" 1 (Block_cache.misses c)

let test_cache_invalidate () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:4 d in
  let _ = ok (Block_cache.read c 0) in
  Block_cache.invalidate c;
  Block_cache.reset_stats c;
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "cold after invalidate" 1 (Block_cache.misses c)

let test_zero_capacity_disables_caching () =
  let d = Disk.create ~nblocks:8 ~block_size:64 () in
  let c = Block_cache.create ~capacity:0 d in
  let _ = ok (Block_cache.read c 0) in
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "every access reaches the device" 2 (Disk.reads d)

let test_disk_latency_charging () =
  (* The on_io hook turns I/O counts into simulated time. *)
  let clock = Clock.create () in
  let d =
    Disk.create ~on_io:(fun () -> Clock.advance clock 10) ~nblocks:8 ~block_size:64 ()
  in
  let c = Block_cache.create ~capacity:4 d in
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "miss costs 10 ticks" 10 (Clock.now clock);
  let _ = ok (Block_cache.read c 0) in
  Alcotest.(check int) "hit costs nothing" 10 (Clock.now clock);
  ok (Block_cache.write c 1 (Bytes.make 64 'x'));
  Alcotest.(check int) "write-through charged" 20 (Clock.now clock)

(* ------------------------------------------------------------------ *)
(* Law: the device, which allocates a block on its first write, behaves
   like a dense array of zeroed blocks.                                *)

type disk_op =
  | D_write of int * int  (** block (out of range allowed), fill seed *)
  | D_read of int
  | D_read_mutate of int  (** read, then scribble over the returned buffer *)
  | D_snapshot
  | D_restore
  | D_fail_writes_after of int
  | D_clear_failures

let print_disk_op = function
  | D_write (i, c) -> Printf.sprintf "write %d/%d" i c
  | D_read i -> Printf.sprintf "read %d" i
  | D_read_mutate i -> Printf.sprintf "read-mutate %d" i
  | D_snapshot -> "snapshot"
  | D_restore -> "restore"
  | D_fail_writes_after n -> Printf.sprintf "fail-writes-after %d" n
  | D_clear_failures -> "clear-failures"

let law_nblocks = 6
let law_bs = 16

let disk_ops_arb =
  let blk = QCheck.Gen.int_range (-1) law_nblocks in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_disk_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(
      list_size (int_range 1 40)
        (frequency
           [
             (6, map2 (fun i c -> D_write (i, c)) blk (int_bound 255));
             (4, map (fun i -> D_read i) blk);
             (2, map (fun i -> D_read_mutate i) blk);
             (1, return D_snapshot);
             (1, return D_restore);
             (1, map (fun n -> D_fail_writes_after n) (int_bound 4));
             (1, return D_clear_failures);
           ]))

let run_disk_law ops =
  let d = Disk.create ~nblocks:law_nblocks ~block_size:law_bs () in
  let zero = Bytes.make law_bs '\000' in
  let model = Array.init law_nblocks (fun _ -> Bytes.copy zero) in
  let written = Array.make law_nblocks false in
  let reads = ref 0 and writes = ref 0 and budget = ref None in
  let snap = ref None in
  let in_range i = i >= 0 && i < law_nblocks in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let read_checked step i =
    match Disk.read d i with
    | Ok b when in_range i ->
      incr reads;
      if not (Bytes.equal b model.(i)) then fail "step %d: block %d reads wrong" step i;
      Some b
    | Error Errno.EINVAL when not (in_range i) -> None
    | Ok _ | Error _ -> fail "step %d: read %d answered wrongly" step i
  in
  List.iteri
    (fun step op ->
      (match op with
       | D_write (i, c) ->
         let buf = Bytes.init law_bs (fun k -> Char.chr ((c + k) land 0xff)) in
         (match Disk.write d i buf with
          | Error Errno.EINVAL when not (in_range i) -> ()
          | Error Errno.EIO when !budget = Some 0 -> ()
          | Ok () when in_range i && !budget <> Some 0 ->
            budget := Option.map pred !budget;
            incr writes;
            written.(i) <- true;
            Bytes.blit buf 0 model.(i) 0 law_bs;
            (* The caller keeps its buffer: changing it changes nothing. *)
            Bytes.fill buf 0 law_bs '!'
          | _ -> fail "step %d: write %d answered wrongly" step i)
       | D_read i -> ignore (read_checked step i)
       | D_read_mutate i ->
         Option.iter (fun b -> Bytes.fill b 0 law_bs 'M') (read_checked step i)
       | D_snapshot ->
         snap := Some (Disk.snapshot d, Array.map Bytes.copy model, Array.copy written)
       | D_restore ->
         Option.iter
           (fun (media, m, w) ->
             Disk.restore d media;
             Array.iteri (fun i b -> Bytes.blit b 0 model.(i) 0 law_bs) m;
             Array.blit w 0 written 0 law_nblocks)
           !snap
       | D_fail_writes_after n ->
         Disk.fail_writes_after d n;
         budget := Some n
       | D_clear_failures ->
         Disk.clear_failures d;
         budget := None);
      if Disk.reads d <> !reads || Disk.writes d <> !writes then
        fail "step %d: counted %d reads, %d writes; the model %d, %d" step (Disk.reads d)
          (Disk.writes d) !reads !writes;
      Array.iteri
        (fun i b ->
          if not (Bytes.equal b model.(i)) then fail "step %d: media block %d differs" step i;
          if (not written.(i)) && not (Bytes.equal b zero) then
            fail "step %d: never-written block %d is not zero" step i)
        (Disk.snapshot d))
    ops;
  true

let disk_props =
  [
    QCheck.Test.make ~name:"sparse disk behaves like a dense one" ~count:500 disk_ops_arb
      run_disk_law;
  ]

(* ------------------------------------------------------------------ *)
(* Law: the int-array LRU answers every access as the stamp-scan one it
   replaced (test/block_cache_ref.ml) does, so it evicts the same block
   at every step: the same bytes or error, hits, misses, version and
   device I/Os.  Each cache has a disk of its own, failing alike.      *)

type cache_op =
  | C_read of int  (** block, out of range allowed *)
  | C_read_copy of int  (** read a copy, then scribble over it *)
  | C_write of int * int  (** block, fill seed *)
  | C_invalidate
  | C_fail_writes_after of int
  | C_clear_failures

let print_cache_op = function
  | C_read i -> Printf.sprintf "read %d" i
  | C_read_copy i -> Printf.sprintf "read-copy %d" i
  | C_write (i, c) -> Printf.sprintf "write %d/%d" i c
  | C_invalidate -> "invalidate"
  | C_fail_writes_after n -> Printf.sprintf "fail-writes-after %d" n
  | C_clear_failures -> "clear-failures"

let cache_nblocks = 32
let cache_bs = 16

let cache_ops_arb =
  (* Mostly a few hot blocks, so small caches both hit and evict. *)
  let blk =
    QCheck.Gen.(
      frequency [ (6, int_bound 9); (3, int_bound (cache_nblocks - 1)); (1, int_range (-1) cache_nblocks) ])
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map print_cache_op ops)))
    ~shrink:QCheck.Shrink.(pair nil list)
    QCheck.Gen.(
      pair (oneofl [ 0; 1; 2; 3; 8 ])
        (list_size (int_range 1 120)
           (frequency
              [
                (8, map (fun i -> C_read i) blk);
                (2, map (fun i -> C_read_copy i) blk);
                (4, map2 (fun i c -> C_write (i, c)) blk (int_bound 255));
                (1, return C_invalidate);
                (1, map (fun n -> C_fail_writes_after n) (int_bound 4));
                (1, return C_clear_failures);
              ])))

let run_cache_law (capacity, ops) =
  let disk () = Disk.create ~nblocks:cache_nblocks ~block_size:cache_bs () in
  let d = disk () and d' = disk () in
  let c = Block_cache.create ~capacity d and r = Block_cache_ref.create ~capacity d' in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let same step what a b =
    if a <> b then fail "step %d: %s answered otherwise than the oracle" step what
  in
  List.iteri
    (fun step op ->
      (match op with
       | C_read i -> same step "read" (Block_cache.read c i) (Block_cache_ref.read r i)
       | C_read_copy i ->
         let a = Block_cache.read_copy c i and b = Block_cache_ref.read_copy r i in
         same step "read_copy" a b;
         Result.iter (fun b -> Bytes.fill b 0 cache_bs 'M') a
       | C_write (i, k) ->
         let buf = Bytes.init cache_bs (fun j -> Char.chr ((k + j) land 0xff)) in
         same step "write" (Block_cache.write c i buf) (Block_cache_ref.write r i buf);
         (* The caller keeps its buffer: changing it changes nothing. *)
         Bytes.fill buf 0 cache_bs '!'
       | C_invalidate ->
         Block_cache.invalidate c;
         Block_cache_ref.invalidate r
       | C_fail_writes_after n ->
         Disk.fail_writes_after d n;
         Disk.fail_writes_after d' n
       | C_clear_failures ->
         Disk.clear_failures d;
         Disk.clear_failures d');
      let ours = Block_cache.[ hits c; misses c; version c; Disk.reads d; Disk.writes d ]
      and theirs = Block_cache_ref.[ hits r; misses r; version r; Disk.reads d'; Disk.writes d' ] in
      if ours <> theirs then
        fail "step %d: hits, misses, version, reads, writes %s; the oracle %s" step
          (String.concat "," (List.map string_of_int ours))
          (String.concat "," (List.map string_of_int theirs)))
    ops;
  true

(* A hit on a full cache allocates nothing.  Counted with
   [Gc.minor_words], which is exact. *)
let test_cache_hit_allocates_nothing () =
  let d = Disk.create ~nblocks:64 ~block_size:64 () in
  let c = Block_cache.create ~capacity:8 d in
  for i = 0 to 8 do
    ignore (ok (Block_cache.read c i))
  done;
  let hits = Block_cache.hits c in
  let before = Gc.minor_words () in
  for k = 1 to 1_000 do
    ignore (Block_cache.read c (1 + (k land 7)))
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "1,000 hits" 1_000 (Block_cache.hits c - hits);
  Alcotest.(check int) "minor words" 0 words

let cache_law =
  QCheck.Test.make ~name:"block cache agrees with the stamp-scan LRU" ~count:500 cache_ops_arb
    run_cache_law

(* ------------------------------------------------------------------ *)
(* UFS write counts: a small update costs a constant number of device
   writes, and the ones that change nothing cost none.                 *)

(* Device writes made by [f]. *)
let writes_of disk f =
  let before = Disk.writes disk in
  f ();
  Disk.writes disk - before

let test_same_size_replace_costs_two_writes () =
  let disk, fs = fresh_ufs () in
  let root = Ufs_vnode.root fs in
  let f = ok (root.Vnode.create "f") in
  ok (Vnode.overwrite f (String.make 300 'a'));
  let n = writes_of disk (fun () -> ok (Vnode.overwrite f (String.make 300 'b'))) in
  Alcotest.(check int) "one data write and one inode write" 2 n;
  Alcotest.(check string) "read back" (String.make 300 'b') (ok (Vnode.read_all f))

let test_truncate_to_size_writes_nothing () =
  let disk, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
  ok (Ufs.write fs f ~off:0 "twelve bytes");
  let mtime = (ok (Ufs.stat fs f)).Ufs.mtime in
  Alcotest.(check int) "no device write" 0 (writes_of disk (fun () -> ok (Ufs.truncate fs f 12)));
  Alcotest.(check int) "mtime unchanged" mtime (ok (Ufs.stat fs f)).Ufs.mtime

(* 150 entries of 6 + 10 bytes span three 1 KiB blocks; one more entry
   changes the last block only. *)
let test_directory_append_writes_changed_blocks () =
  let disk, fs = fresh_ufs () in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "d") in
  let target = ok (Ufs.create fs ~dir:(Ufs.root fs) "target") in
  for i = 1 to 150 do
    ok (Ufs.link fs ~dir:d (Printf.sprintf "name%06d" i) target)
  done;
  Alcotest.(check int) "three blocks" 3 (((ok (Ufs.stat fs d)).Ufs.size + 1023) / 1024);
  let n = writes_of disk (fun () -> ok (Ufs.link fs ~dir:d "name000151" target)) in
  Alcotest.(check int) "last block, directory inode, target inode" 3 n;
  Alcotest.(check int) "151 entries" 151 (List.length (ok (Ufs.dir_entries fs d)));
  Alcotest.(check (result unit string)) "fsck clean" (Ok ()) (Ufs.check fs)

(* A rename over an existing name in a 2,048-entry directory of about
   35 blocks (past the indirect block) retargets the name's record where
   it stands and drops the source's record from the tail: the target's
   block, the last block, the directory inode and the replaced inode (a
   link of a shared file, so only its count drops), wherever the target
   is. *)
let test_shadow_commit_writes_two_blocks () =
  let disk, fs = fresh_ufs () in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "d") in
  let target = ok (Ufs.create fs ~dir:(Ufs.root fs) "target") in
  let name i = Printf.sprintf "name%06d" i in
  for i = 0 to 2047 do
    ok (Ufs.link fs ~dir:d (name i) target)
  done;
  Alcotest.(check bool) "past the indirect block" true ((ok (Ufs.stat fs d)).Ufs.size > 12 * 1024);
  List.iter
    (fun i ->
      let shadow = ok (Ufs.create fs ~dir:d "shadow") in
      let n = writes_of disk (fun () -> ok (Ufs.rename fs ~sdir:d ~sname:"shadow" ~ddir:d ~dname:(name i))) in
      if n > 4 then Alcotest.failf "a rename over entry %d made %d device writes (bound 4)" i n;
      Alcotest.(check int) "retargeted" shadow (ok (Ufs.dir_lookup fs d (name i))))
    [ 0; 700; 2047 ];
  Alcotest.(check int) "2,048 entries" 2048 (List.length (ok (Ufs.dir_entries fs d)));
  Alcotest.(check (result unit string)) "fsck clean" (Ok ()) (Ufs.check fs)

(* A 1,024-entry Ficus DIR file of about 50 blocks, and the same DIR
   with one entry's name changed in place (same length): overwriting
   the first with the second writes the blocks that change and the
   inode, not every block. *)
let test_dir_overwrite_writes_changed_blocks () =
  let disk, fs = fresh_ufs () in
  let dir rename =
    let rec fill d i =
      if i > 1024 then d
      else
        let name = if i = rename then Printf.sprintf "entry-X%05d" i else Printf.sprintf "entry-%06d" i in
        fill
          (ok
             (Fdir.add d ~rid:1 ~name ~fid:{ Ids.issuer = 1; uniq = i } ~kind:Aux_attrs.Freg
                ~birth:{ Fdir.b_rid = 1; b_seq = i }))
          (i + 1)
    in
    Fdir.encode (fill (Fdir.empty 1) 1)
  in
  let before = dir 0 and after = dir 512 in
  Alcotest.(check int) "same length" (String.length before) (String.length after);
  let blocks = (String.length before + 1023) / 1024 in
  let changed =
    List.length
      (List.filter
         (fun b ->
           let lo = b * 1024 in
           let n = min 1024 (String.length before - lo) in
           String.sub before lo n <> String.sub after lo n)
         (List.init blocks Fun.id))
  in
  Alcotest.(check bool) "past the indirect block, one or two blocks change" true
    (blocks > 12 && changed >= 1 && changed <= 2);
  let f = ok ((Ufs_vnode.root fs).Vnode.create "DIR") in
  ok (Vnode.overwrite f before);
  let n = writes_of disk (fun () -> ok (Vnode.overwrite f after)) in
  Alcotest.(check int) "changed blocks and the inode" (changed + 1) n;
  Alcotest.(check string) "read back" after (ok (Vnode.read_all f))

(* The superblock, the zeroed bitmaps and inode table, one write per
   bitmap block for the reservations, and the root inode: 3,084 writes
   on a 16,384-block disk of 512-byte blocks with 12,288 inodes. *)
let test_mkfs_writes_each_bitmap_block_once () =
  let disk = Disk.create ~nblocks:16_384 ~block_size:512 () in
  ignore (ok (Ufs.mkfs ~ninodes:12_288 ~now:(fun () -> 0) disk) : Ufs.t);
  let n = Disk.writes disk in
  if n > 3_100 then Alcotest.failf "mkfs made %d device writes (bound 3,100)" n

(* 14 blocks of 1 KiB: two past the 12 direct ones.  A trim inside the
   last block keeps every pointer, so the indirect block is not written:
   the tail block's zeroing and the inode.  A trim that drops block 13
   writes the indirect block, the inode and the bitmap. *)
let test_trim_keeps_indirect_block () =
  let disk, fs = fresh_ufs () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
  ok (Ufs.write fs f ~off:0 (String.make (14 * 1024) 'x'));
  let n = writes_of disk (fun () -> ok (Ufs.truncate fs f ((13 * 1024) + 100))) in
  Alcotest.(check int) "tail block and inode" 2 n;
  let n = writes_of disk (fun () -> ok (Ufs.truncate fs f (13 * 1024))) in
  Alcotest.(check int) "indirect block, inode and bitmap" 3 n;
  Alcotest.(check (result unit string)) "fsck clean" (Ok ()) (Ufs.check fs)

(* A sequence of replaces, 0 to 15 blocks of 512 bytes (past the 12
   direct blocks into the single-indirect one), made both by the
   in-place overwrite and by truncate-then-write: each step reads back
   the last contents, fsck stays clean, and both ways hold the same
   number of free blocks, so the in-place path leaks none. *)
let replace_arb =
  let bs = 512 in
  let size =
    QCheck.Gen.(
      frequency
        [
          (3, int_bound (15 * bs));
          (2, map (fun n -> n * bs) (int_bound 15));
          (1, int_bound 40);
        ])
  in
  QCheck.make
    ~print:(fun steps ->
      String.concat "; " (List.map (fun (n, c) -> Printf.sprintf "%d x %C" n c) steps))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 12) (pair size (map Char.chr (int_range 97 122))))

let replace_law =
  QCheck.Test.make ~name:"in-place replace reads back, keeps fsck clean and leaks no block"
    ~count:100 replace_arb (fun steps ->
      let file () =
        let _, fs = fresh_ufs ~block_size:512 ~blocks:512 () in
        (fs, ok ((Ufs_vnode.root fs).Vnode.create "f"))
      in
      let fs, f = file () and fs', f' = file () in
      List.iteri
        (fun i (n, c) ->
          let data = String.init n (fun k -> if k mod 7 = 0 then c else Char.chr (97 + (k mod 26))) in
          ok (Vnode.overwrite f data);
          ok (Vnode.write_all f' data);
          if ok (Vnode.read_all f) <> data then QCheck.Test.fail_reportf "step %d: read back differs" i;
          (match Ufs.check fs with
           | Ok () -> ()
           | Error e -> QCheck.Test.fail_reportf "step %d: fsck: %s" i e);
          if ok (Ufs.nfree_blocks fs) <> ok (Ufs.nfree_blocks fs') then
            QCheck.Test.fail_reportf "step %d: %d free blocks, truncate-then-write leaves %d" i
              (ok (Ufs.nfree_blocks fs)) (ok (Ufs.nfree_blocks fs')))
        steps;
      true)

let suite =
  [
    case "disk read/write" test_disk_read_write;
    case "disk latency charging" test_disk_latency_charging;
    case "disk bounds and size checks" test_disk_bounds_and_size_checks;
    case "disk returns private copies" test_disk_returns_private_copies;
    case "write failure injection" test_write_failure_injection;
    case "snapshot/restore" test_snapshot_restore;
    case "cache hit avoids device" test_cache_hit_avoids_device;
    case "cache write-through" test_cache_write_through;
    case "cache LRU eviction" test_cache_lru_eviction;
    case "cache invalidate" test_cache_invalidate;
    case "zero capacity disables caching" test_zero_capacity_disables_caching;
    case "cache hit allocates nothing" test_cache_hit_allocates_nothing;
    case "same-size replace costs two writes" test_same_size_replace_costs_two_writes;
    case "truncate to the size writes nothing" test_truncate_to_size_writes_nothing;
    case "directory append writes changed blocks" test_directory_append_writes_changed_blocks;
    case "a rename over a name in a 2,048-entry directory writes two blocks and two inodes"
      test_shadow_commit_writes_two_blocks;
    case "a one-entry change to a 1,024-entry DIR writes its block and the inode"
      test_dir_overwrite_writes_changed_blocks;
    case "mkfs writes each bitmap block once" test_mkfs_writes_each_bitmap_block_once;
    case "a trim that keeps every pointer keeps the indirect block" test_trim_keeps_indirect_block;
  ]
  @ List.map QCheck_alcotest.to_alcotest (disk_props @ [ cache_law; replace_law ])
