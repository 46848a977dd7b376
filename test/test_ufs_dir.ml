(* UFS directory updates: the slot editor against the entry-list model,
   the shadow commit, an unlink and cross-directory renames at every
   device cut, a corrupt block, and a rename into the source's own
   subtree. *)

open Util

let show_io f = function Ok x -> f x | Error e -> Errno.to_string e

(* A fresh unjournaled UFS of 512-byte blocks on [disk]. *)
let ufs_512 ?(blocks = 512) () =
  let disk = Disk.create ~nblocks:blocks ~block_size:512 () in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  (disk, ok ~msg:"mkfs" (Ufs.mkfs ~cache_capacity:32 ~ninodes:512 ~now disk))

let remount disk = ok ~msg:"mount" (Ufs.mount ~now:(fun () -> 0) disk)

let copy_of disk =
  let copy = Disk.create ~nblocks:(Disk.nblocks disk) ~block_size:(Disk.block_size disk) () in
  Disk.restore copy (Disk.snapshot disk);
  copy

let problems fs = match Ufs.check fs with Ok () -> [] | Error m -> String.split_on_char ';' m

(* A cut of the device after each of [0 .. w) writes of [op], on a
   fresh copy of [base] each time, where [w] is what [op] writes uncut;
   [check k fs] sees the remounted file system after the cut at [k]. *)
let sweep_cuts base op check =
  let run k =
    let disk = Disk.create ~nblocks:(Array.length base) ~block_size:512 () in
    Disk.restore disk base;
    let fs = remount disk in
    Disk.reset_stats disk;
    Option.iter (Disk.fail_writes_after disk) k;
    let r = op fs in
    Disk.clear_failures disk;
    (disk, r)
  in
  let disk, r = run None in
  ok ~msg:"uncut" r;
  let w = Disk.writes disk in
  for k = 0 to w - 1 do
    let disk, _ = run (Some k) in
    check k (remount disk)
  done;
  w

(* ------------------------------------------------------------------ *)
(* Rename into the source's own subtree                                *)

let test_rename_into_own_subtree () =
  let _, fs = ufs_512 () in
  let root = Ufs.root fs in
  let a = ok (Ufs.mkdir fs ~dir:root "a") in
  let b = ok (Ufs.mkdir fs ~dir:a "b") in
  let f = ok (Ufs.create fs ~dir:root "f") in
  expect_err Errno.EINVAL (Ufs.rename fs ~sdir:root ~sname:"a" ~ddir:b ~dname:"a2");
  expect_err Errno.EINVAL (Ufs.rename fs ~sdir:root ~sname:"a" ~ddir:a ~dname:"a3");
  Alcotest.(check int) "a stays" a (ok (Ufs.dir_lookup fs root "a"));
  Alcotest.(check int) "b stays" b (ok (Ufs.dir_lookup fs a "b"));
  (* A file may move anywhere, and a directory beside itself. *)
  ok (Ufs.rename fs ~sdir:root ~sname:"f" ~ddir:b ~dname:"f");
  ok (Ufs.rename fs ~sdir:a ~sname:"b" ~ddir:root ~dname:"b");
  Alcotest.(check int) "f moved" f (ok (Ufs.dir_lookup fs b "f"));
  Alcotest.(check (result unit string)) "fsck clean" (Ok ()) (Ufs.check fs)

(* ------------------------------------------------------------------ *)
(* A cross-directory rename keeps the object named at every cut        *)

let test_cross_dir_rename_keeps_object_named () =
  let case ~dir ~replace =
    let disk, fs = ufs_512 () in
    let root = Ufs.root fs in
    let s = ok (Ufs.mkdir fs ~dir:root "s") and d = ok (Ufs.mkdir fs ~dir:root "d") in
    (* Other names after both entries, so each record shares its block. *)
    let pad dir tag =
      List.iter (fun i -> ignore (ok (Ufs.create fs ~dir (Printf.sprintf "%s%02d-%s" tag i (String.make 40 'p'))))) (List.init 12 Fun.id)
    in
    let obj = ok ((if dir then Ufs.mkdir else Ufs.create) fs ~dir:s "obj") in
    if dir then ignore (ok (Ufs.create fs ~dir:obj "inside")) else ok (Ufs.write fs obj ~off:0 "object");
    pad s "s";
    if replace then ignore (ok ((if dir then Ufs.mkdir else Ufs.create) fs ~dir:d "dst"));
    pad d "d";
    let base = Disk.snapshot disk in
    let what = Printf.sprintf "%s over %s name" (if dir then "directory" else "file") (if replace then "an existing" else "a new") in
    let w =
      sweep_cuts base
        (fun fs -> Ufs.rename fs ~sdir:s ~sname:"obj" ~ddir:d ~dname:"dst")
        (fun k fs ->
          let under dir name = Ufs.dir_lookup fs dir name = Ok obj in
          if not (under s "obj" || under d "dst") then
            Alcotest.failf "%s, cut after %d writes: the object is under neither name" what k;
          (* At worst a link count one short and the replaced inode
             leaked; never the object lost or freed. *)
          let lost =
            [
              Printf.sprintf "inode %d allocated but unreachable" obj;
              Printf.sprintf "inode %d reachable but free" obj;
              Printf.sprintf "reference to free inode %d" obj;
            ]
          in
          List.iter
            (fun p -> if List.mem (String.trim p) lost then Alcotest.failf "%s, cut after %d writes: fsck: %s" what k p)
            (problems fs))
    in
    if w < 3 then Alcotest.failf "%s: only %d writes swept" what w
  in
  List.iter (fun (dir, replace) -> case ~dir ~replace) [ (false, false); (false, true); (true, false); (true, true) ]

(* ------------------------------------------------------------------ *)
(* The shadow commit and an unlink at every cut                        *)

(* 81 names in a directory of 512-byte blocks, and their inodes. *)
let n_names = 81

let dir_of_81 name =
  let disk, fs = ufs_512 ~blocks:1024 () in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "d") in
  let inums = Array.init n_names (fun i -> ok (Ufs.create fs ~dir:d (name i))) in
  (disk, fs, d, inums)

(* Every name but [except] resolves to its inode. *)
let names_kept ~ctx fs d name inums ~except =
  Array.iteri
    (fun i inum ->
      if i <> except && Ufs.dir_lookup fs d (name i) <> Ok inum then Alcotest.failf "%s: %s lost" ctx (name i))
    inums

(* Names of 11 bytes, the first of 12: four blocks.  For each target
   position a shadow file is created (it takes the last block's free
   space) and renamed over the target, with the device cut after every
   write of the rename: after a remount no other name is lost and the
   target reads its old or its new contents, the new one keeping a
   name.  200 other files make the
   shadow's inode number differ from the target's in its second byte,
   so a record written in part would name a third inode.  Where the
   target's record is in another block than the shadow's, the target's
   block is written first, so one cut leaves the new version under both
   names; the positions where that happens are counted and printed. *)
let test_shadow_commit_sweep () =
  let name i = if i = 0 then "name-0000000" else Printf.sprintf "name-%06d" i in
  let both = ref 0 in
  for target = 0 to n_names - 1 do
    let disk, fs, d, inums = dir_of_81 name in
    let pad = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "pad") in
    for i = 0 to 199 do
      ignore (ok (Ufs.create fs ~dir:pad (Printf.sprintf "p%d" i)))
    done;
    let old_data = Printf.sprintf "old %d" target and new_data = Printf.sprintf "new %d" target in
    ok (Ufs.write fs inums.(target) ~off:0 old_data);
    let shadow = ok (Ufs.create fs ~dir:d "shadow") in
    ok (Ufs.write fs shadow ~off:0 new_data);
    let seen_both = ref false in
    ignore
      (sweep_cuts (Disk.snapshot disk)
         (fun fs -> Ufs.rename fs ~sdir:d ~sname:"shadow" ~ddir:d ~dname:(name target))
         (fun k fs ->
           let ctx = Printf.sprintf "target %d, cut after %d writes" target k in
           names_kept ~ctx fs d name inums ~except:target;
           let got =
             match Ufs.dir_lookup fs d (name target) with
             | Ok i -> Ufs.read fs i ~off:0 ~len:max_int
             | Error e -> Error e
           in
           if got <> Ok old_data && got <> Ok new_data then
             Alcotest.failf "%s: it reads %s" ctx (show_io (Printf.sprintf "%S") got);
           let shadow_named = Ufs.dir_lookup fs d "shadow" = Ok shadow in
           if got = Ok old_data && not shadow_named then Alcotest.failf "%s: the new version lost its name" ctx;
           if got = Ok new_data && shadow_named then seen_both := true)
        : int);
    if !seen_both then incr both
  done;
  Printf.printf "shadow commit: at %d of %d target positions a cut leaves the new version under both names\n"
    !both n_names

(* Unlinking the first name, with the device cut after every write: no
   other name is lost, and fsck finds at most the unlinked inode leaked. *)
let test_unlink_sweep () =
  (* Names of 10 bytes: 28 records of 18 bytes to a block, three blocks. *)
  let name i = Printf.sprintf "name-%05d" i in
  let disk, fs, d, inums = dir_of_81 name in
  if (ok (Ufs.stat fs d)).Ufs.size <> 3 * 512 then Alcotest.fail "the directory is not three blocks";
  let w =
    sweep_cuts (Disk.snapshot disk)
      (fun fs -> Ufs.unlink fs ~dir:d (name 0))
      (fun k fs ->
        let ctx = Printf.sprintf "cut after %d writes" k in
        names_kept ~ctx fs d name inums ~except:0;
        let leak = Printf.sprintf "inode %d allocated but unreachable" inums.(0) in
        List.iter
          (fun p -> if String.trim p <> leak then Alcotest.failf "%s: fsck: %s" ctx p)
          (problems fs))
  in
  if w < 3 then Alcotest.failf "only %d writes swept" w

(* ------------------------------------------------------------------ *)
(* A block whose record chain overruns it                              *)

(* A directory block zeroed on the device (a record of length 0) makes
   lookups answer EIO and fsck name the block. *)
let test_corrupt_block_is_eio () =
  let disk, fs = ufs_512 () in
  let d = ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "d") in
  let before = Disk.snapshot disk in
  ignore (ok (Ufs.create fs ~dir:d "f") : Ufs.inum);
  let image = ok (Ufs.dir_image fs d) in
  let after = Disk.snapshot disk in
  let blk = ref (-1) in
  Array.iteri (fun i b -> if Bytes.to_string b = image && Bytes.to_string b <> Bytes.to_string before.(i) then blk := i) after;
  if !blk < 0 then Alcotest.fail "the directory's block was not found";
  ok (Disk.write disk !blk (Bytes.make 512 '\000'));
  let fs = remount disk in
  expect_err Errno.EIO (Ufs.dir_lookup fs d "f");
  expect_err Errno.EIO (Ufs.parse_dir fs (String.make 512 '\000'));
  match Ufs.check fs with
  | Ok () -> Alcotest.fail "fsck passed a corrupt directory"
  | Error m ->
    let want = Printf.sprintf "directory %d: the records of its block 0 do not end at the block's end" d in
    if not (List.mem want (List.map String.trim (String.split_on_char ';' m))) then
      Alcotest.failf "fsck: %s" m

(* ------------------------------------------------------------------ *)
(* The editor against the entry-list model                             *)

(* Random create/mkdir/link/unlink/rmdir/rename steps over a few
   directories, journaled or not, some cut off by a failing device, and
   remounts.  The model is each directory's entry list, edited as
   [Dir_ref] edits it; after each step every reachable directory's
   stored image is whole blocks whose record chains each end exactly at
   the block's end ([Ufs.parse_dir] accepts it), its entries are the
   model's and its name index is the model's.  Unjournaled, a cut-off
   call is torn: the live images must then equal a fresh mount's, the
   model takes their parse, and fsck is no longer required clean.
   Journaled, a call takes effect exactly when it returns [Ok], and a
   remount falls back to what the last flush made durable. *)

type dir_op =
  | D_create of int * int  (** dir, name *)
  | D_mkdir of int * int
  | D_link of int * int * int  (** dir, name, which file *)
  | D_unlink of int * int
  | D_rmdir of int * int
  | D_rename of int * int * int * int  (** source dir and name, destination dir and name *)
  | D_remount

let print_dir_op (op, fail) =
  (match op with
   | D_create (d, n) -> Printf.sprintf "create %d/%d" d n
   | D_mkdir (d, n) -> Printf.sprintf "mkdir %d/%d" d n
   | D_link (d, n, f) -> Printf.sprintf "link file %d as %d/%d" f d n
   | D_unlink (d, n) -> Printf.sprintf "unlink %d/%d" d n
   | D_rmdir (d, n) -> Printf.sprintf "rmdir %d/%d" d n
   | D_rename (a, b, c, d) -> Printf.sprintf "rename %d/%d %d/%d" a b c d
   | D_remount -> "remount")
  ^ match fail with Some k -> Printf.sprintf " (device fails after %d writes)" k | None -> ""

let dir_law_arb =
  let open QCheck.Gen in
  let dir = int_bound 5 and name = int_bound 9 in
  let op =
    frequency
      [
        (6, map2 (fun d n -> D_create (d, n)) dir name);
        (2, map2 (fun d n -> D_mkdir (d, n)) dir name);
        (2, map3 (fun d n f -> D_link (d, n, f)) dir name (int_bound 20));
        (4, map2 (fun d n -> D_unlink (d, n)) dir name);
        (1, map2 (fun d n -> D_rmdir (d, n)) dir name);
        (3, map3 (fun d a b -> D_rename (d, a, d, b)) dir name name);
        (2, map2 (fun (a, b) (c, d) -> D_rename (a, b, c, d)) (pair dir name) (pair dir name));
        (1, return D_remount);
      ]
  in
  let call = pair op (frequency [ (3, return None); (1, map Option.some (int_bound 8)) ]) in
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil list)
    ~print:(fun (journaled, calls) ->
      Printf.sprintf "%s: %s"
        (if journaled then "journaled" else "unjournaled")
        (String.concat "; " (List.map print_dir_op calls)))
    (pair bool (list_size (int_range 1 60) call))

(* Names of 4 to 120 bytes: a directory of a few spans 512-byte blocks. *)
let law_name n = Printf.sprintf "e%d-%s" n (String.make (n * 37 mod 117) 'q')

let show_entries es =
  String.concat "," (List.map (fun (n, i, k) -> Printf.sprintf "%s=%d%s" n i (if k = Ufs.Dir then "/" else "")) es)

let run_dir_law (journaled, calls) =
  let disk = Disk.create ~nblocks:1024 ~block_size:512 () in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  let journal_blocks = if journaled then 128 else 0 in
  let fs =
    ref
      (ok ~msg:"mkfs"
         (Ufs.mkfs ~cache_capacity:16 ~ninodes:128 ~journal_blocks ~journal_flush_blocks:8
            ~journal_flush_age:4 ~now disk))
  in
  let root = Ufs.root !fs in
  (* The model: each directory's entries; journaled, the durable ones;
     whether an unjournaled call was torn. *)
  let model = Hashtbl.create 16 in
  Hashtbl.replace model root [];
  let durable = ref (Hashtbl.copy model) in
  let torn_ever = ref false in
  let entries d = Option.value ~default:[] (Hashtbl.find_opt model d) in
  (* The directories reachable from the root in the model, in walk order. *)
  let dirs () =
    let seen = Hashtbl.create 16 in
    let rec walk acc d =
      if Hashtbl.mem seen d || not (Hashtbl.mem model d) then acc
      else begin
        Hashtbl.replace seen d ();
        List.fold_left (fun acc (_, i, k) -> if k = Ufs.Dir then walk acc i else acc) (d :: acc) (entries d)
      end
    in
    List.rev (walk [] root)
  in
  let dir_at i = let ds = dirs () in List.nth ds (i mod List.length ds) in
  (* Every reachable directory's image in [f], walking the images. *)
  let images f =
    let seen = Hashtbl.create 16 in
    let rec walk acc d =
      if Hashtbl.mem seen d then acc
      else begin
        Hashtbl.replace seen d ();
        match Ufs.dir_image f d with
        | Error _ -> acc
        | Ok img ->
          List.fold_left
            (fun acc (_, i, k) -> if k = Ufs.Dir then walk acc i else acc)
            ((d, img) :: acc)
            (Result.value ~default:[] (Ufs.parse_dir f img))
      end
    in
    List.rev (walk [] root)
  in
  let check ~ctx =
    List.iter
      (fun d ->
        let img =
          match Ufs.dir_image !fs d with
          | Ok img -> img
          | Error e -> QCheck.Test.fail_reportf "%s: directory %d: %s" ctx d (Errno.to_string e)
        in
        let want = Dir_ref.sorted (entries d) in
        let parsed =
          match Ufs.parse_dir !fs img with
          | Ok parsed -> Dir_ref.sorted parsed
          | Error _ ->
            QCheck.Test.fail_reportf "%s: directory %d: a block's record chain does not end at its end" ctx d
        in
        if parsed <> want then
          QCheck.Test.fail_reportf "%s: directory %d holds %s, the model %s" ctx d (show_entries parsed)
            (show_entries want);
        match Ufs.dir_index !fs d with
        | Ok idx when idx = Dir_ref.index want -> ()
        | r ->
          QCheck.Test.fail_reportf "%s: directory %d: name index %s, the model's %s" ctx d
            (show_io (fun l -> String.concat "," (List.map (fun (n, i) -> Printf.sprintf "%s=%d" n i) l)) r)
            (String.concat "," (List.map (fun (n, i) -> Printf.sprintf "%s=%d" n i) (Dir_ref.index want))))
      (dirs ());
    if not !torn_ever then
      match Ufs.check !fs with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "%s: fsck: %s" ctx m
  in
  let kind_of inum = match Ufs.stat !fs inum with Ok a -> a.Ufs.kind | Error _ -> Ufs.Reg in
  let set d es = Hashtbl.replace model d es in
  List.iteri
    (fun step ((op, cut) as call) ->
      let ctx = Printf.sprintf "step %d (%s)" step (print_dir_op call) in
      let before = Disk.writes disk in
      Option.iter (Disk.fail_writes_after disk) cut;
      (* The call, and what the model does if it takes effect. *)
      let r, apply =
        match op with
        | D_create (d, n) ->
          let d = dir_at d in
          (match Ufs.create !fs ~dir:d (law_name n) with
           | Ok i -> (Ok (), fun () -> set d (Dir_ref.append (entries d) (law_name n, i, Ufs.Reg)))
           | Error e -> (Error e, ignore))
        | D_mkdir (d, n) ->
          let d = dir_at d in
          (match Ufs.mkdir !fs ~dir:d (law_name n) with
           | Ok i ->
             ( Ok (),
               fun () ->
                 set i [];
                 set d (Dir_ref.append (entries d) (law_name n, i, Ufs.Dir)) )
           | Error e -> (Error e, ignore))
        | D_link (d, n, f) ->
          let d = dir_at d in
          let files =
            List.sort_uniq compare
              (List.concat_map
                 (fun d -> List.filter_map (fun (_, i, k) -> if k = Ufs.Reg then Some i else None) (entries d))
                 (dirs ()))
          in
          if files = [] then (Ok (), ignore)
          else
            let target = List.nth files (f mod List.length files) in
            let kind = kind_of target in
            ( Ufs.link !fs ~dir:d (law_name n) target,
              fun () -> set d (Dir_ref.append (entries d) (law_name n, target, kind)) )
        | D_unlink (d, n) ->
          let d = dir_at d in
          (Ufs.unlink !fs ~dir:d (law_name n), fun () -> set d (Dir_ref.drop (entries d) (law_name n)))
        | D_rmdir (d, n) ->
          let d = dir_at d in
          (Ufs.rmdir !fs ~dir:d (law_name n), fun () -> set d (Dir_ref.drop (entries d) (law_name n)))
        | D_rename (a, b, c, e) ->
          let sd = dir_at a and dd = dir_at c and sn = law_name b and dn = law_name e in
          let first dir name = List.find_opt (fun (n, _, _) -> n = name) (entries dir) in
          let apply () =
            match first sd sn with
            | None -> ()
            | Some (_, src, _) ->
              let kind = kind_of src in
              (match first dd dn with
               | Some (_, d, _) when d = src -> ()
               | Some _ when sd = dd -> set sd (Dir_ref.retarget (entries sd) sn dn src kind)
               | None when sd = dd -> set sd (Dir_ref.rename (entries sd) sn dn)
               | Some _ ->
                 set dd (Dir_ref.retarget (entries dd) dn dn src kind);
                 set sd (Dir_ref.drop (entries sd) sn)
               | None ->
                 set dd (Dir_ref.append (entries dd) (dn, src, kind));
                 set sd (Dir_ref.drop (entries sd) sn))
          in
          (Ufs.rename !fs ~sdir:sd ~sname:sn ~ddir:dd ~dname:dn, apply)
        | D_remount ->
          Disk.clear_failures disk;
          fs :=
            ok ~msg:ctx
              (Ufs.mount ~journal_flush_blocks:8 ~journal_flush_age:4 ~now disk);
          if journaled then begin
            Hashtbl.reset model;
            Hashtbl.iter (Hashtbl.replace model) !durable
          end;
          (Ok (), ignore)
      in
      Disk.clear_failures disk;
      let writes = Disk.writes disk - before in
      (match r, cut with
       | Ok (), _ -> apply ()
       | Error _, Some k when (not journaled) && writes >= k ->
         (* Torn: the live images must be the media's, and the model
            takes their parse. *)
         let live = images !fs in
         let fresh = images (remount (copy_of disk)) in
         if live <> fresh then QCheck.Test.fail_reportf "%s: a torn call left the live images unlike the media's" ctx;
         torn_ever := true;
         Hashtbl.reset model;
         List.iter (fun (d, img) -> Hashtbl.replace model d (Result.value ~default:[] (Ufs.parse_dir !fs img))) live
       | Error _, _ -> ());
      ignore (Ufs.journal_tick !fs);
      if journaled && not (Ufs.journal_pending !fs) then durable := Hashtbl.copy model;
      check ~ctx)
    calls;
  true

let suite =
  [
    case "rename into its own subtree is EINVAL" test_rename_into_own_subtree;
    case "a cross-directory rename keeps the object named at every cut"
      test_cross_dir_rename_keeps_object_named;
    case "the shadow commit loses no other name and reads old or new at every cut"
      test_shadow_commit_sweep;
    case "an unlink loses no other name at any cut" test_unlink_sweep;
    case "a block whose records overrun it is EIO and fsck names it" test_corrupt_block_is_eio;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every directory edit stores the model's entries in whole-block chains"
         ~count:200 dir_law_arb run_dir_law);
  ]
