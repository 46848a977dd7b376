(* Each setting has one default, written where its value is decided:
   [Cluster.create] for the daemons it builds, [Block_cache] for the
   cache capacity, [Journal] for the group-commit thresholds.  These
   cases pin each default at the component it reaches, so a default
   restated (or changed) on the way down fails here. *)

open Util

let test_reconciler_first_due () =
  let cluster = Cluster.create ~nhosts:2 () in
  for i = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "host%d first pass due" i)
      100
      (Recon_daemon.next_due (Cluster.reconciler (Cluster.host cluster i)))
  done

let test_notified_update_pulled_next_run () =
  (* Delay 0: the pull happens on the propagation run that delivers the
     notification, with no clock advance in between. *)
  let cluster = Cluster.create ~nhosts:2 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  create_file root0 "f" "v1";
  let before = Clock.now (Cluster.clock cluster) in
  let (_ : int) = Cluster.run_propagation cluster in
  Alcotest.(check int) "no tick passed" before (Clock.now (Cluster.clock cluster));
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let e = Option.get (Fdir.find_live (ok (Physical.fetch_dir phys1 [])) "f") in
  let _, data = ok (Physical.fetch_file phys1 [ e.Fdir.fid ]) in
  Alcotest.(check string) "pulled" "v1" data

let test_cache_capacity () =
  let disk = Disk.create ~nblocks:2048 ~block_size:1024 () in
  let fs = ok (Ufs.mkfs ~now:(fun () -> 0) disk) in
  Alcotest.(check int) "Ufs.mkfs" 256 (Block_cache.capacity (Ufs.cache fs));
  let cluster = Cluster.create ~nhosts:1 () in
  Alcotest.(check int) "Cluster.create" 256
    (Block_cache.capacity (Ufs.cache (Cluster.ufs (Cluster.host cluster 0))))

(* A journaled UFS on a clock the test sets by hand. *)
let journaled () =
  let disk = Disk.create ~nblocks:2048 ~block_size:1024 () in
  let clock = ref 0 in
  let fs = ok (Ufs.mkfs ~journal_blocks:128 ~now:(fun () -> !clock) disk) in
  (disk, clock, fs)

let flushes fs = List.assoc "flushes" (Ufs.journal_stats fs)

let test_journal_flush_blocks () =
  (* One-block appends each stage one new data block (the inode and
     bitmap blocks are staged already), so the write that triggers the
     first flush brings the staged set to the threshold exactly.  The
     flush writes that set plus a header and a seal to the log. *)
  let disk, _, fs = journaled () in
  let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
  let rec append i =
    if i > 64 then Alcotest.fail "no flush after 64 appends"
    else begin
      let w0 = Disk.writes disk in
      ok (Ufs.write fs f ~off:(i * 1024) (String.make 1024 'x'));
      if flushes fs = 0 then append (i + 1) else Disk.writes disk - w0 - 2
    end
  in
  Alcotest.(check int) "blocks in the first flush" 32 (append 0)

let test_journal_flush_age () =
  let _, clock, fs = journaled () in
  let (_ : Ufs.inum) = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
  clock := 7;
  ok (Ufs.journal_tick fs);
  Alcotest.(check bool) "7 ticks old: staged" true (Ufs.journal_pending fs);
  clock := 8;
  ok (Ufs.journal_tick fs);
  Alcotest.(check bool) "8 ticks old: flushed" false (Ufs.journal_pending fs);
  Alcotest.(check int) "one flush" 1 (flushes fs)

let suite =
  [
    case "reconciler first due at tick 100" test_reconciler_first_due;
    case "notified update pulled on the next run" test_notified_update_pulled_next_run;
    case "block cache holds 256 blocks" test_cache_capacity;
    case "journal flushes at 32 staged blocks" test_journal_flush_blocks;
    case "journal flushes after 8 ticks" test_journal_flush_age;
  ]
