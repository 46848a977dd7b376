(* Subtree summaries on one replica: a failed flush keeps what it did
   not write, and a qcheck law over local schedules — own summaries
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
    ok (Physical.create ~container ~clock ~host:"hostA" ~vref ~rid ~peers:[ (rid, "hostA") ] ())
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
(* A failed flush                                                      *)

(* Fail the device after every possible number of writes into a flush
   of three directories' bumps.  Whenever the flush fails, no own
   summary has moved, and the next flush writes them all (a fresh
   attach, which has nothing pending, reads the same vectors).  A cut in
   the middle of an aux store leaves that file unreadable on this
   unjournaled disk; such points belong to the crash sweep (ROADMAP
   "Crash at every device write") and are skipped here. *)
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
    let readable () =
      List.for_all (fun (_, fids) -> Result.is_ok (Physical.get_version phys fids)) (live_dirs phys)
    in
    match result with
    | Ok _ -> ()
    | Error _ when not (readable ()) -> sweep (k + 1)
    | Error _ ->
      incr checked;
      same (Printf.sprintf "own summaries unchanged (device failed after %d writes)" k) before
        (summaries phys);
      let (_ : int) = ok (Physical.flush_summaries phys) in
      same (Printf.sprintf "the next flush wrote them (device failed after %d writes)" k) before
        (summaries (ok (Physical.attach ~container ~clock ~host:"hostA" ())));
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
    case "a failed flush keeps the bumps it did not write" test_failed_flush_keeps_bumps;
    QCheck_alcotest.to_alcotest law;
  ]
