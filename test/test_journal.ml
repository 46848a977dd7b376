(* The write-ahead metadata journal: group commit, sync durability,
   crash/replay semantics, and the journaled cluster.  The exhaustive
   every-write-point crash sweep is the WAL experiment
   ([Experiments.run_by_name "wal"], run from test_experiments.ml);
   these are the targeted unit cases. *)

open Util

(* A journaled UFS whose clock the test controls.  The huge default
   flush thresholds mean nothing reaches the device unless the test
   forces it (sync / tick / threshold), so each case can pin down
   exactly which state is durable at the crash. *)
let fresh_journaled ?(blocks = 2048) ?(cache = 128) ?(journal_blocks = 64)
    ?(flush_blocks = 10_000) ?(flush_age = 10_000) () =
  let disk = Disk.create ~nblocks:blocks ~block_size:1024 () in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  let fs =
    ok ~msg:"mkfs"
      (Ufs.mkfs ~cache_capacity:cache ~journal_blocks
         ~journal_flush_blocks:flush_blocks ~journal_flush_age:flush_age ~now disk)
  in
  (disk, clock, fs)

let fsck fs =
  match Ufs.check fs with Ok () -> () | Error m -> Alcotest.failf "fsck: %s" m

let test_sync_then_crash_loses_nothing () =
  let _disk, _clock, fs = fresh_journaled () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let f = ok (Ufs.create fs ~dir:d "f") in
  ok (Ufs.write fs f ~off:0 "must survive the crash");
  ok (Ufs.sync fs);
  ok (Ufs.crash_reboot fs);
  fsck fs;
  let d' = ok (Ufs.dir_lookup fs root "d") in
  let f' = ok (Ufs.dir_lookup fs d' "f") in
  Alcotest.(check string)
    "content survives" "must survive the crash"
    (ok (Ufs.read fs f' ~off:0 ~len:1024))

let test_unsynced_ops_lost_atomically () =
  let _disk, _clock, fs = fresh_journaled () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let f = ok (Ufs.create fs ~dir:d "f") in
  ok (Ufs.write fs f ~off:0 "synced");
  ok (Ufs.sync fs);
  (* Committed but never flushed: staged only, gone at power loss. *)
  let g = ok (Ufs.create fs ~dir:d "g") in
  ok (Ufs.write fs g ~off:0 "staged only");
  ok (Ufs.crash_reboot fs);
  fsck fs;
  let d' = ok (Ufs.dir_lookup fs root "d") in
  let f' = ok (Ufs.dir_lookup fs d' "f") in
  Alcotest.(check string) "synced op intact" "synced" (ok (Ufs.read fs f' ~off:0 ~len:64));
  expect_err Errno.ENOENT (Ufs.dir_lookup fs d' "g")

let test_replay_is_idempotent () =
  (* flush_blocks = 1: every commit goes straight to the log, so the
     crash leaves sealed-but-not-checkpointed groups for replay. *)
  let _disk, _clock, fs = fresh_journaled ~flush_blocks:1 () in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "dir") in
  for i = 0 to 5 do
    let f = ok (Ufs.create fs ~dir:d (Printf.sprintf "f%d" i)) in
    ok (Ufs.write fs f ~off:0 (Printf.sprintf "payload %d" i))
  done;
  ok (Ufs.unlink fs ~dir:d "f0");
  let dump fs =
    let d = ok (Ufs.dir_lookup fs (Ufs.root fs) "dir") in
    List.map
      (fun (name, i, _) -> (name, ok (Ufs.read fs i ~off:0 ~len:64)))
      (List.sort compare (ok (Ufs.dir_entries fs d)))
  in
  ok (Ufs.crash_reboot fs);
  fsck fs;
  let first = dump fs in
  Alcotest.(check bool) "replay applied something" true
    (List.assoc "replayed" (Ufs.journal_stats fs) > 0);
  (* A second crash immediately after: replaying the same log again
     must land in the identical state. *)
  ok (Ufs.crash_reboot fs);
  fsck fs;
  Alcotest.(check (list (pair string string))) "second replay identical" first (dump fs);
  Alcotest.(check int) "five files live" 5 (List.length first)

let test_staged_state_visible_before_flush () =
  (* A tiny cache forces evictions, so reads must come from the
     journal's staged table, not from cache luck. *)
  let disk, _clock, fs = fresh_journaled ~cache:2 () in
  let w0 = Disk.writes disk in
  let root = Ufs.root fs in
  let d = ok (Ufs.mkdir fs ~dir:root "d") in
  let f = ok (Ufs.create fs ~dir:d "f") in
  ok (Ufs.write fs f ~off:0 (String.make 2500 'x'));
  Alcotest.(check int) "no device writes before flush" w0 (Disk.writes disk);
  let f' = ok (Ufs.dir_lookup fs (ok (Ufs.dir_lookup fs root "d")) "f") in
  Alcotest.(check string)
    "staged contents readable" (String.make 2500 'x')
    (ok (Ufs.read fs f' ~off:0 ~len:2500));
  fsck fs

let test_tick_flushes_by_age () =
  let disk, clock, fs = fresh_journaled ~flush_age:4 () in
  let root = Ufs.root fs in
  let f = ok (Ufs.create fs ~dir:root "aged") in
  ok (Ufs.write fs f ~off:0 "flushed by the daemon");
  let w0 = Disk.writes disk in
  (* Too young: the tick must not flush yet. *)
  ok (Ufs.journal_tick fs);
  Alcotest.(check int) "young commit stays staged" w0 (Disk.writes disk);
  (* Age it past the threshold: the tick seals it into the log. *)
  clock := !clock + 10;
  ok (Ufs.journal_tick fs);
  Alcotest.(check bool) "aged commit flushed" true (Disk.writes disk > w0);
  (* Flushed-but-not-checkpointed survives the crash via replay. *)
  ok (Ufs.crash_reboot fs);
  fsck fs;
  let f' = ok (Ufs.dir_lookup fs root "aged") in
  Alcotest.(check string)
    "daemon-flushed op durable" "flushed by the daemon"
    (ok (Ufs.read fs f' ~off:0 ~len:64))

let test_journaled_cluster_reboot () =
  let cluster = Cluster.create ~nhosts:2 ~journal_blocks:64 () in
  let vref = ok (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let f = ok (root0.Vnode.create "hello") in
  ok (Vnode.write_all f "journaled cluster");
  let (_ : int) = Cluster.run_propagation cluster in
  ok (Ufs.sync (Cluster.ufs (Cluster.host cluster 0)));
  (* reboot replays the journal and fscks; corruption would raise. *)
  ok (Cluster.reboot cluster 0);
  let root0 = ok (Cluster.logical_root cluster 0 vref) in
  let f = ok (root0.Vnode.lookup "hello") in
  Alcotest.(check string) "file survives host reboot" "journaled cluster"
    (ok (Vnode.read_all f))

(* The log's checksum reads every byte: flipping any one bit of a 4 KiB
   block, or of the 12-byte and [bs - 4]-byte spans the superblock and
   headers cover (tails shorter than a word), changes it.  And it
   allocates nothing per word. *)
let test_checksum_sees_every_byte () =
  let check len =
    let b = Bytes.init len (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
    let base = Journal.checksum ~seed:1 b 0 len in
    Alcotest.(check int) "deterministic" base (Journal.checksum ~seed:1 b 0 len);
    Alcotest.(check bool) "the seed chains" true (Journal.checksum ~seed:2 b 0 len <> base);
    for i = 0 to len - 1 do
      List.iter
        (fun bit ->
          let c = Bytes.get b i in
          Bytes.set b i (Char.chr (Char.code c lxor bit));
          if Journal.checksum ~seed:1 b 0 len = base then
            Alcotest.failf "len %d: flipping bit %x of byte %d left the checksum" len bit i;
          Bytes.set b i c)
        [ 0x01; 0x80 ]
    done
  in
  List.iter check [ 12; 1020; 4096 ];
  (* The state stays unboxed: 100 checksums of a 4 KiB block allocate
     nothing ([Gc.minor_words] is exact). *)
  let b = Bytes.make 4096 'x' in
  let before = Gc.minor_words () in
  for seed = 1 to 100 do
    ignore (Journal.checksum ~seed b 0 4096)
  done;
  Alcotest.(check int) "minor words" 0 (int_of_float (Gc.minor_words () -. before))

(* A sealed group whose payload is corrupted on the device after the
   flush is not replayed: the mount recovers the state before it. *)
let test_corrupt_payload_not_replayed () =
  let run ~corrupt =
    let disk, _clock, fs = fresh_journaled ~flush_blocks:1 () in
    let (_ : int) = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "d") in
    (* flush_blocks = 1: the mkdir's group is sealed in the log, not
       yet home.  The first record starts at the first log slot. *)
    let log = Disk.nblocks disk - 64 in
    if corrupt then begin
      let b = ok (Disk.read disk (log + 2)) in
      Bytes.set b 100 (Char.chr (Char.code (Bytes.get b 100) lxor 1));
      ok (Disk.write disk (log + 2) b)
    end;
    let fs = ok (Ufs.mount ~now:(fun () -> 0) disk) in
    fsck fs;
    Result.is_ok (Ufs.dir_lookup fs (Ufs.root fs) "d")
  in
  Alcotest.(check bool) "an intact group is replayed" true (run ~corrupt:false);
  Alcotest.(check bool) "a corrupt one is not" false (run ~corrupt:true)

(* A grow whose group-commit flush fails on the device has taken effect
   all the same: its writes are staged.  For every cut point that fails
   the flush, the call returns [Ok] exactly when [stat] shows the new
   size, [sync] reports the failure while the device still fails, and
   once it is healthy [sync] puts exactly the change on the media. *)
let test_failed_flush_keeps_the_call () =
  let grown = String.make 3000 'n' in
  let rec sweep k failed =
    let disk, _clock, fs = fresh_journaled ~flush_blocks:2 () in
    let f = ok (Ufs.create fs ~dir:(Ufs.root fs) "f") in
    ok (Ufs.write fs f ~off:0 "old");
    ok (Ufs.sync fs);
    Disk.fail_writes_after disk k;
    let r = Ufs.write fs f ~off:0 grown in
    let size = (ok (Ufs.stat fs f)).Ufs.size in
    let what = Printf.sprintf "device fails after %d writes" k in
    Alcotest.(check bool) (what ^ ": Ok exactly when stat shows the new size") (r = Ok ()) (size = 3000);
    if not (Ufs.journal_pending fs) then begin
      Alcotest.(check bool) "the sweep reached a flush that fails" true (failed > 0);
      Disk.clear_failures disk
    end
    else begin
      expect_err Errno.EIO (Ufs.sync fs);
      Disk.clear_failures disk;
      ok ~msg:what (Ufs.sync fs);
      let copy = Disk.create ~nblocks:(Disk.nblocks disk) ~block_size:(Disk.block_size disk) () in
      Disk.restore copy (Disk.snapshot disk);
      let fresh = ok (Ufs.mount ~now:(fun () -> 0) copy) in
      fsck fresh;
      Alcotest.(check (list string)) (what ^ ": the names on the media") [ "f" ]
        (List.map (fun (n, _, _) -> n) (ok (Ufs.dir_entries fresh (Ufs.root fresh))));
      Alcotest.(check string) (what ^ ": the file on the media") grown
        (ok (Ufs.read fresh f ~off:0 ~len:max_int));
      sweep (k + 1) (failed + 1)
    end
  in
  sweep 0 0

let suite =
  [
    case "sync then crash loses nothing" test_sync_then_crash_loses_nothing;
    case "unsynced ops are lost atomically, fsck clean" test_unsynced_ops_lost_atomically;
    case "journal replay is idempotent" test_replay_is_idempotent;
    case "staged state visible before any flush" test_staged_state_visible_before_flush;
    case "journal_tick flushes by age" test_tick_flushes_by_age;
    case "journaled cluster survives reboot" test_journaled_cluster_reboot;
    case "the log checksum sees every byte" test_checksum_sees_every_byte;
    case "a corrupt payload is not replayed" test_corrupt_payload_not_replayed;
    case "a call whose flush fails is kept, and sync reports it" test_failed_flush_keeps_the_call;
  ]
