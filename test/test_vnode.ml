(* The stackable vnode framework: the forwarding skeleton, null layers,
   pathname walking, counters, and the UFS vnode export. *)

open Util

let ufs_root () =
  let _, fs = fresh_ufs () in
  Ufs_vnode.root fs

let test_not_supported_defaults () =
  let v = Vnode.not_supported Vnode.No_data in
  expect_err Errno.ENOTSUP (Result.map (fun _ -> ()) (v.Vnode.getattr ()));
  expect_err Errno.ENOTSUP (Result.map (fun _ -> ()) (v.Vnode.lookup "x"));
  expect_err Errno.ENOTSUP (v.Vnode.write ~off:0 "x")

let test_ufs_vnode_roundtrip () =
  let root = ufs_root () in
  let f = ok (root.Vnode.create "file") in
  ok (f.Vnode.write ~off:0 "via vnodes");
  Alcotest.(check string) "read" "via vnodes" (ok (Vnode.read_all f));
  let attrs = ok (f.Vnode.getattr ()) in
  Alcotest.(check bool) "regular" true (attrs.Vnode.kind = Vnode.VREG);
  Alcotest.(check int) "size" 10 attrs.Vnode.size

let test_write_all_truncates () =
  let root = ufs_root () in
  let f = ok (root.Vnode.create "f") in
  ok (Vnode.write_all f "a long first version");
  ok (Vnode.write_all f "short");
  Alcotest.(check string) "replaced" "short" (ok (Vnode.read_all f))

let test_null_layer_transparent () =
  let root = ufs_root () in
  let wrapped = Null_layer.wrap_depth 4 root in
  let d = ok (wrapped.Vnode.mkdir "dir") in
  let f = ok (d.Vnode.create "file") in
  ok (f.Vnode.write ~off:0 "through 4 layers");
  (* Visible through the unwrapped stack too. *)
  Alcotest.(check string) "contents" "through 4 layers" (read_file root "dir/file")

let test_null_layer_counts_crossings () =
  let counters = Counters.create () in
  let root = Null_layer.wrap ~counters (ufs_root ()) in
  let _ = ok (root.Vnode.getattr ()) in
  let _ = ok (root.Vnode.readdir ()) in
  Alcotest.(check int) "two crossings" 2 (Counters.get counters "layer.crossings")

let test_null_layer_rename_unwraps_sibling () =
  let root = ufs_root () in
  let wrapped = Null_layer.wrap root in
  let d1 = ok (wrapped.Vnode.mkdir "d1") in
  let d2 = ok (wrapped.Vnode.mkdir "d2") in
  let _ = ok (d1.Vnode.create "f") in
  ok (d1.Vnode.rename "f" d2 "g");
  Alcotest.(check string) "moved" "" (read_file root "d2/g");
  (* A sibling from a different layer is rejected, not misinterpreted. *)
  expect_err Errno.EXDEV (d1.Vnode.rename "x" root "y")

(* Every operation of a forwarded vnode, and of the vnodes its lookup
   returns, runs through the hook exactly once. *)
let test_forward_hooks_every_op () =
  let seen = ref [] in
  let hook = { Vnode.around = (fun name op -> seen := name :: !seen; op ()) } in
  let rec make lower =
    Vnode.forward ~hook ~data:lower.Vnode.data ~wrap:make ~unwrap:Result.ok lower
  in
  let root = make (ufs_root ()) in
  let d = ok (root.Vnode.mkdir "d") in
  let _ = ok (root.Vnode.create "f") in
  let f = ok (root.Vnode.lookup "f") in
  ok (f.Vnode.write ~off:0 "abc");
  Alcotest.(check string) "read" "abc" (ok (f.Vnode.read ~off:0 ~len:3));
  let _ = ok (f.Vnode.getattr ()) in
  ok (f.Vnode.setattr { Vnode.setattr_none with set_mode = Some 0o600 });
  ok (f.Vnode.openv Vnode.Read_only);
  ok (f.Vnode.closev ());
  let _ = f.Vnode.fsync () in
  let _ = f.Vnode.inactive () in
  ok (root.Vnode.link f "g");
  ok (root.Vnode.rename "g" root "h");
  ok (root.Vnode.remove "h");
  let _ = ok (d.Vnode.readdir ()) in
  ok (root.Vnode.rmdir "d");
  Alcotest.(check (list string)) "each operation once"
    [ "close"; "create"; "fsync"; "getattr"; "inactive"; "link"; "lookup"; "mkdir"; "open";
      "read"; "readdir"; "remove"; "rename"; "rmdir"; "setattr"; "write" ]
    (List.sort compare !seen)

let test_namei_walk () =
  let root = ufs_root () in
  let _ = ok (Namei.mkdir_p ~root "a/b/c") in
  create_file root "a/b/c/leaf" "found";
  Alcotest.(check string) "walk" "found" (read_file root "/a//b/c/leaf");
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (Namei.walk ~root "a/zz"));
  let parent, name = ok (Namei.walk_parent ~root "a/b/c/leaf") in
  Alcotest.(check string) "final" "leaf" name;
  let _ = ok (parent.Vnode.lookup "leaf") in
  expect_err Errno.EINVAL (Result.map (fun _ -> ()) (Namei.walk_parent ~root "/"))

let test_namei_mkdir_p_idempotent () =
  let root = ufs_root () in
  let _ = ok (Namei.mkdir_p ~root "x/y") in
  let _ = ok (Namei.mkdir_p ~root "x/y/z") in
  create_file root "x/y/z/f" "v";
  expect_err Errno.ENOTDIR (Result.map (fun _ -> ()) (Namei.mkdir_p ~root "x/y/z/f/deeper"))

let test_counters () =
  let c = Counters.create () in
  Counters.incr c "a";
  Counters.add c "a" 4;
  Counters.incr c "b";
  Alcotest.(check int) "a" 5 (Counters.get c "a");
  Alcotest.(check int) "missing" 0 (Counters.get c "zz");
  Alcotest.(check (list (pair string int))) "snapshot" [ ("a", 5); ("b", 1) ] (Counters.snapshot c);
  let before = Counters.snapshot c in
  Counters.add c "a" 2;
  Alcotest.(check (list (pair string int))) "diff" [ ("a", 2) ]
    (Counters.diff ~before ~after:(Counters.snapshot c));
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.get c "a")

(* Views: each child counts for itself and, through its cell's link,
   into its parent; a reset on either side zeroes only that side and
   leaves every link working. *)
let test_counter_views () =
  let parent = Counters.create () in
  let a = Counters.child parent and b = Counters.child parent in
  Counters.incr a "x";
  Counters.add b "x" 2;
  Counters.incr parent "y";
  Alcotest.(check (list int)) "own counts" [ 1; 2; 0 ]
    [ Counters.get a "x"; Counters.get b "x"; Counters.get a "y" ];
  Alcotest.(check (list (pair string int))) "parent sums its views"
    [ ("x", 3); ("y", 1) ] (Counters.snapshot parent);
  Counters.reset parent;
  Alcotest.(check int) "parent reset" 0 (Counters.get parent "x");
  Alcotest.(check int) "view keeps its count" 1 (Counters.get a "x");
  Counters.incr a "x";
  Alcotest.(check int) "next increment reaches the reset parent" 1 (Counters.get parent "x");
  Counters.reset a;
  Alcotest.(check int) "view reset leaves the parent" 1 (Counters.get parent "x");
  let grandchild = Counters.child a in
  Counters.add grandchild "z" 4;
  Alcotest.(check (list int)) "a chain links every level" [ 4; 4; 4 ]
    [ Counters.get grandchild "z"; Counters.get a "z"; Counters.get parent "z" ]

let suite =
  [
    case "not_supported defaults" test_not_supported_defaults;
    case "UFS vnode roundtrip" test_ufs_vnode_roundtrip;
    case "write_all truncates" test_write_all_truncates;
    case "null layer is transparent" test_null_layer_transparent;
    case "null layer counts crossings" test_null_layer_counts_crossings;
    case "null layer rename unwraps siblings" test_null_layer_rename_unwraps_sibling;
    case "forward hooks every operation" test_forward_hooks_every_op;
    case "namei walk" test_namei_walk;
    case "namei mkdir_p idempotent" test_namei_mkdir_p_idempotent;
    case "counters" test_counters;
    case "counter views link to their parent" test_counter_views;
  ]
