(* Subtree summaries on one replica: an aux store cut at any device
   write leaves the old or the new record, a failed flush keeps what it
   did not write, and a qcheck law over local schedules — own summaries
   never fall, a flush moves none of them, and every directory covers
   its child directories in this replica's component. *)

open Util
module Vv = Version_vector

let rid = 1

let fresh () =
  let disk, fs = fresh_ufs () in
  let clock = Clock.create () in
  let container = ok (Namei.mkdir_p ~root:(Ufs_vnode.root fs) "vol") in
  let vref = { Ids.alloc = 0; vol = 1 } in
  let phys =
    ok (Physical.create ~obs:(Obs.create ()) ~container ~clock ~host:"hostA" ~vref ~rid ~peers:[ (rid, "hostA") ] ())
  in
  (disk, clock, container, phys)

(* Every live directory: its name path and its fid path, root first. *)
let live_dirs phys =
  let rec go names fids acc =
    let fdir = ok (Physical.fetch_dir phys fids) in
    List.fold_left
      (fun acc (name, e) ->
        match e.Fdir.kind with
        | Aux_attrs.Freg -> acc
        | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
          go (names @ [ name ]) (fids @ [ e.Fdir.fid ]) acc)
      ((names, fids) :: acc) (Fdir.live fdir)
  in
  List.rev (go [] [] [])

(* Every live regular file: its parent's name path and its name. *)
let live_files phys =
  List.concat_map
    (fun (names, fids) ->
      List.filter_map
        (fun (name, e) -> if e.Fdir.kind = Aux_attrs.Freg then Some (names, name) else None)
        (Fdir.live (ok (Physical.fetch_dir phys fids))))
    (live_dirs phys)

let own phys fids =
  match (ok (Physical.get_version phys fids)).Physical.vi_summary with
  | Some s -> s
  | None -> Alcotest.fail "directory carries no summary"

let path_fid fids = match List.rev fids with [] -> Ids.root_fid | fid :: _ -> fid

(* Each live directory's own summary, by fid. *)
let summaries phys =
  List.map (fun (_, fids) -> (path_fid fids, own phys fids)) (live_dirs phys)

(* ------------------------------------------------------------------ *)
(* A cut aux store                                                     *)

(* Fail the device after every possible number of writes into one
   [Aux_attrs.store] over an existing record, on an unjournaled disk,
   and read the record back, from the cache and again after a cold
   reboot: it is the old record or the new one, the new one once the
   store succeeded, and never unreadable.  The pairs cover a record that
   grows and one that shrinks inside one block ("r1:10" cut back to the
   old length would read as "r1:1"), and records too large for one
   block, written past the live one or, after one that was, back at the
   first free offset. *)
let test_cut_aux_store () =
  let fid = { Ids.issuer = 1; uniq = 7 } in
  let reg vv = { (Aux_attrs.make Aux_attrs.Freg) with Aux_attrs.vv = Vv.of_list vv } in
  let small = reg [ (1, 9) ] in
  let grown = { (reg [ (1, 10) ]) with Aux_attrs.digest = Some (String.make 32 'a') } in
  let large = reg (List.init 60 (fun i -> (i + 1, 1_000_000 + i))) in
  let larger = { large with Aux_attrs.conflict = true; span = 12345 } in
  assert (String.length (Aux_attrs.encode large) > Shadow.record_size);
  let pairs =
    [
      ([ small ], grown);
      ([ grown ], small);
      ([ small ], large);
      ([ large ], grown);
      ([ large ], larger);
      ([ large; larger ], large);
      ([ large; larger ], small);
    ]
  in
  let sweep block_size (history, next) =
    let old = List.nth history (List.length history - 1) in
    let rec cut k =
      let disk, fs = fresh_ufs ~block_size () in
      let dir = Ufs_vnode.root fs in
      List.iter (fun aux -> ok (Aux_attrs.store ~dir fid aux)) history;
      Disk.fail_writes_after disk k;
      let result = Aux_attrs.store ~dir fid next in
      Disk.clear_failures disk;
      let check when_ =
        let got =
          match Aux_attrs.load ~dir fid with
          | Ok aux -> Aux_attrs.encode aux
          | Error e ->
            Alcotest.failf "%d-byte blocks, cut after %d writes, %s: %s" block_size k when_
              (Errno.to_string e)
        in
        let is_next = got = Aux_attrs.encode next in
        if not (is_next || (Result.is_error result && got = Aux_attrs.encode old)) then
          Alcotest.failf "%d-byte blocks, cut after %d writes, %s: a third record %S" block_size
            k when_ got
      in
      check "cached";
      ok (Ufs.crash_reboot fs);
      check "after a reboot";
      if Result.is_error result then cut (k + 1) else k
    in
    cut 0
  in
  List.iter
    (fun block_size ->
      List.iter
        (fun pair -> Alcotest.(check bool) "some cut failed" true (sweep block_size pair > 0))
        pairs)
    [ 512; 1024 ]

(* Fail the device after every possible number of writes into a create
   in a directory that already holds [n] files, on an unjournaled disk,
   then reboot cold and attach.  The directory's [DIR] file grows, so it
   is extended before it is written: a cut reads back as the old
   directory, the new one, or an error, never as the new version vector
   over the old entries.  Two files fit one block; fifty-one fill two,
   and the new entry starts a third. *)
let test_cut_dir_create () =
  let names n = List.init n (Printf.sprintf "file-%02d") in
  let setup n =
    let disk, fs = fresh_ufs () in
    let clock = Clock.create () in
    let container = ok (Namei.mkdir_p ~root:(Ufs_vnode.root fs) "vol") in
    let vref = { Ids.alloc = 0; vol = 1 } in
    let phys =
      ok (Physical.create ~obs:(Obs.create ()) ~container ~clock ~host:"hostA" ~vref ~rid ~peers:[ (rid, "hostA") ] ())
    in
    let root = Physical.root phys in
    List.iter (fun name -> ok ((ok (root.Vnode.create name)).Vnode.write ~off:0 name)) (names n);
    let (_ : int) = ok (Physical.flush_summaries phys) in
    (disk, fs, clock, container, phys)
  in
  let root_dir phys = Fdir.encode (ok (Physical.fetch_dir phys [])) in
  let sweep n =
    let expected =
      let _, _, _, _, phys = setup n in
      ignore (ok ((Physical.root phys).Vnode.create "new-file"));
      root_dir phys
    in
    let rec cut k =
      let disk, fs, clock, container, phys = setup n in
      let old = root_dir phys in
      Disk.fail_writes_after disk k;
      let result = (Physical.root phys).Vnode.create "new-file" in
      Disk.clear_failures disk;
      ok (Ufs.crash_reboot fs);
      (match Physical.attach ~obs:(Obs.create ()) ~container ~clock ~host:"hostA" () with
       | Error _ -> ()
       | Ok phys -> (
         match Physical.fetch_dir phys [] with
         | Error _ -> ()
         | Ok fdir ->
           let got = Fdir.encode fdir in
           if not (got = expected || (Result.is_error result && got = old)) then
             Alcotest.failf "%d files, cut after %d writes: a third directory %S" n k got));
      if Result.is_error result then cut (k + 1) else k
    in
    Alcotest.(check bool) "some cut failed" true (cut 0 > 0)
  in
  List.iter sweep [ 2; 51 ]

(* ------------------------------------------------------------------ *)
(* A failed flush                                                      *)

(* Fail the device after every possible number of writes into a flush
   of three directories' bumps, on an unjournaled disk.  Every aux file
   and META stay readable at every cut, since each store commits with
   one block write.  Whenever the flush fails, no own summary has moved,
   and the next flush writes them all (a fresh attach, which has nothing
   pending, reads the same vectors). *)
let test_failed_flush_keeps_bumps () =
  let checked = ref 0 in
  let hex = List.map (fun (f, s) -> (Ids.fid_to_hex f, s)) in
  let same msg expected actual =
    Alcotest.(check (list (pair string vv_testable))) msg (hex expected) (hex actual)
  in
  let rec sweep k =
    let disk, clock, container, phys = fresh () in
    let root = Physical.root phys in
    let a = ok (root.Vnode.mkdir "a") in
    let c = ok (a.Vnode.mkdir "c") in
    let _b = ok (root.Vnode.mkdir "b") in
    List.iter
      (fun (d, name) -> ok ((ok (d.Vnode.create name)).Vnode.write ~off:0 name))
      [ (root, "f"); (a, "g"); (c, "h") ];
    let before = summaries phys in
    Disk.fail_writes_after disk k;
    let result = Physical.flush_summaries phys in
    Disk.clear_failures disk;
    List.iter
      (fun (_, fids) ->
        if Result.is_error (Physical.get_version phys fids) then
          Alcotest.failf "an aux file is unreadable (device failed after %d writes)" k)
      (live_dirs phys);
    if Result.is_error (Physical.attach ~obs:(Obs.create ()) ~container ~clock ~host:"hostA" ()) then
      Alcotest.failf "META is unreadable (device failed after %d writes)" k;
    match result with
    | Ok _ -> ()
    | Error _ ->
      incr checked;
      same (Printf.sprintf "own summaries unchanged (device failed after %d writes)" k) before
        (summaries phys);
      let (_ : int) = ok (Physical.flush_summaries phys) in
      same (Printf.sprintf "the next flush wrote them (device failed after %d writes)" k) before
        (summaries (ok (Physical.attach ~obs:(Obs.create ()) ~container ~clock ~host:"hostA" ())));
      sweep (k + 1)
  in
  sweep 0;
  Alcotest.(check bool) "failures between aux stores were checked" true (!checked > 5)

(* ------------------------------------------------------------------ *)
(* The law over local schedules                                        *)

(* Directories and files are picked by index into the current live
   lists (modulo their length), so every step names something real. *)
type step =
  | Mkdir of int * int  (** in directory i, name d<j> *)
  | Create of int * int  (** in directory i, file f<j> *)
  | Write of int  (** file i *)
  | Remove of int  (** file i *)
  | Rmdir of int  (** directory i *)
  | Move of int * int  (** directory i into directory j, a different parent *)
  | Orphan of int
      (** directory i: tombstone its entry, then re-attach it under
          lost+found, as the CRDT repair does with an unplaced directory *)
  | Flush

let step_to_string = function
  | Mkdir (i, j) -> Printf.sprintf "mkdir %d d%d" i j
  | Create (i, j) -> Printf.sprintf "create %d f%d" i j
  | Write i -> Printf.sprintf "write %d" i
  | Remove i -> Printf.sprintf "remove %d" i
  | Rmdir i -> Printf.sprintf "rmdir %d" i
  | Move (i, j) -> Printf.sprintf "move %d %d" i j
  | Orphan i -> Printf.sprintf "orphan %d" i
  | Flush -> "flush"

let step_gen =
  QCheck.Gen.(
    let i = int_bound 15 and j = int_bound 3 in
    frequency
      [
        (4, map2 (fun i j -> Mkdir (i, j)) i j);
        (4, map2 (fun i j -> Create (i, j)) i j);
        (4, map (fun i -> Write i) i);
        (1, map (fun i -> Remove i) i);
        (1, map (fun i -> Rmdir i) i);
        (3, map2 (fun i j -> Move (i, j)) i i);
        (1, map (fun i -> Orphan i) i);
        (2, return Flush);
      ])

let schedule_arb =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map step_to_string steps))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 30) step_gen)

let nth l i = List.nth l (i mod List.length l)

let vnode_at phys names =
  List.fold_left (fun v name -> ok (v.Vnode.lookup name)) (Physical.root phys) names

let rec is_prefix p l =
  match p, l with
  | [], _ -> true
  | x :: p, y :: l -> Ids.fid_equal x y && is_prefix p l
  | _ :: _, [] -> false

(* Apply one step; an error from the layer (a name taken, a directory
   not empty) leaves the replica as it was and is not a failure. *)
let apply phys step =
  let dirs = live_dirs phys in
  let files = live_files phys in
  let parent l = List.filteri (fun k _ -> k < List.length l - 1) l in
  let last l = List.nth l (List.length l - 1) in
  let ignore_error r = ignore (r : (unit, Errno.t) result) in
  (* Directories other than the root and lost+found. *)
  let movable =
    List.filter
      (fun (_, fids) -> fids <> [] && not (Ids.fid_equal (path_fid fids) Physical.lost_found_fid))
      dirs
  in
  match step with
  | Mkdir (i, j) ->
    let names, _ = nth dirs i in
    ignore_error (Result.map ignore ((vnode_at phys names).Vnode.mkdir (Printf.sprintf "d%d" j)))
  | Create (i, j) ->
    let names, _ = nth dirs i in
    ignore_error (Result.map ignore ((vnode_at phys names).Vnode.create (Printf.sprintf "f%d" j)))
  | Write i when files <> [] ->
    let names, name = nth files i in
    ignore_error ((ok ((vnode_at phys names).Vnode.lookup name)).Vnode.write ~off:0 "x")
  | Remove i when files <> [] ->
    let names, name = nth files i in
    ignore_error ((vnode_at phys names).Vnode.remove name)
  | Rmdir i when movable <> [] ->
    let names, _ = nth movable i in
    ignore_error ((vnode_at phys (parent names)).Vnode.rmdir (last names))
  | Move (i, j) when movable <> [] ->
    let names, fids = nth movable i in
    let dst_names, dst_fids = nth dirs j in
    (* Across directories only, and never into its own subtree. *)
    if dst_fids <> parent fids && not (is_prefix fids dst_fids) then
      ignore_error
        ((vnode_at phys (parent names)).Vnode.rename (last names) (vnode_at phys dst_names)
           (last names))
  | Orphan i when movable <> [] ->
    let _, fids = nth movable i in
    let fid = path_fid fids in
    let e = Option.get (Fdir.find_by_fid (ok (Physical.fetch_dir phys (parent fids))) fid) in
    let (_ : bool) = ok (Physical.demote_entry phys (parent fids) e.Fdir.birth) in
    let (_ : bool) = ok (Physical.attach_to_lost_found phys ~fid ~kind:e.Fdir.kind) in
    ()
  | Flush -> ignore (ok (Physical.flush_summaries phys))
  | Write _ | Remove _ | Rmdir _ | Move _ | Orphan _ -> ()

(* The three checks after [step], given the own summaries before it. *)
let law_holds phys step before =
  let after = summaries phys in
  let never_fell =
    List.for_all
      (fun (fid, s) ->
        match List.find_opt (fun (f, _) -> Ids.fid_equal f fid) before with
        | Some (_, s0) -> Vv.dominates s s0
        | None -> true)
      after
  in
  let flush_moved_none =
    step <> Flush
    || List.length before = List.length after
       && List.for_all2 (fun (f0, s0) (f, s) -> Ids.fid_equal f0 f && Vv.equal s0 s) before after
  in
  let covers_children =
    List.for_all
      (fun (_, fids) ->
        let mine = Vv.get (own phys fids) rid in
        List.for_all
          (fun (_, e) ->
            match e.Fdir.kind with
            | Aux_attrs.Freg -> true
            | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
              mine >= Vv.get (own phys (fids @ [ e.Fdir.fid ])) rid)
          (Fdir.live (ok (Physical.fetch_dir phys fids))))
      (live_dirs phys)
  in
  never_fell && flush_moved_none && covers_children

let law =
  QCheck.Test.make ~name:"own summaries never fall, flushes keep them, parents cover children"
    ~count:200 schedule_arb (fun steps ->
      let _, _, _, phys = fresh () in
      List.for_all
        (fun step ->
          let before = summaries phys in
          apply phys step;
          law_holds phys step before)
        steps)

let suite =
  [
    case "an aux store cut at any device write keeps the old or the new record"
      test_cut_aux_store;
    case "a DIR store cut at any device write is never a third directory" test_cut_dir_create;
    case "a failed flush keeps the bumps it did not write" test_failed_flush_keeps_bumps;
    QCheck_alcotest.to_alcotest law;
  ]
