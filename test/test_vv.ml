(* Version vector algebra (Parker et al. 1983). *)

open Util
module Vv = Version_vector

let vv = vv_testable

let test_empty () =
  Alcotest.(check int) "get on empty" 0 (Vv.get Vv.empty 3);
  Alcotest.(check int) "sum of empty" 0 (Vv.sum Vv.empty);
  Alcotest.(check (list (pair int int))) "to_list empty" [] (Vv.to_list Vv.empty)

let test_bump_and_get () =
  let v = Vv.bump (Vv.bump (Vv.bump Vv.empty 1) 1) 2 in
  Alcotest.(check int) "r1" 2 (Vv.get v 1);
  Alcotest.(check int) "r2" 1 (Vv.get v 2);
  Alcotest.(check int) "r3" 0 (Vv.get v 3);
  Alcotest.(check int) "sum" 3 (Vv.sum v)

let test_zero_counts_normalized () =
  Alcotest.check vv "explicit zeros vanish" Vv.empty (Vv.of_list [ (1, 0); (5, 0) ]);
  Alcotest.check vv "singleton zero" Vv.empty (Vv.singleton 3 0)

let test_of_list_later_bindings_win () =
  let v = Vv.of_list [ (1, 5); (1, 2) ] in
  Alcotest.(check int) "later wins" 2 (Vv.get v 1)

let test_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Version_vector: negative update count")
    (fun () -> ignore (Vv.singleton 1 (-1)))

let comparison =
  Alcotest.testable
    (fun ppf -> function
      | Vv.Equal -> Fmt.string ppf "Equal"
      | Vv.Dominates -> Fmt.string ppf "Dominates"
      | Vv.Dominated -> Fmt.string ppf "Dominated"
      | Vv.Concurrent -> Fmt.string ppf "Concurrent")
    ( = )

let test_compare_cases () =
  let a = Vv.of_list [ (1, 2); (2, 1) ] in
  let b = Vv.of_list [ (1, 2); (2, 1) ] in
  let c = Vv.of_list [ (1, 3); (2, 1) ] in
  let d = Vv.of_list [ (1, 1); (2, 5) ] in
  Alcotest.check comparison "equal" Vv.Equal (Vv.compare_vv a b);
  Alcotest.check comparison "dominates" Vv.Dominates (Vv.compare_vv c a);
  Alcotest.check comparison "dominated" Vv.Dominated (Vv.compare_vv a c);
  Alcotest.check comparison "concurrent" Vv.Concurrent (Vv.compare_vv c d);
  Alcotest.check comparison "empty vs empty" Vv.Equal (Vv.compare_vv Vv.empty Vv.empty);
  Alcotest.check comparison "any vs empty" Vv.Dominates (Vv.compare_vv a Vv.empty)

let test_merge_is_lub () =
  let a = Vv.of_list [ (1, 3); (2, 1) ] in
  let b = Vv.of_list [ (2, 4); (3, 2) ] in
  let m = Vv.merge a b in
  Alcotest.check vv "pointwise max" (Vv.of_list [ (1, 3); (2, 4); (3, 2) ]) m;
  Alcotest.(check bool) "dominates a" true (Vv.dominates m a);
  Alcotest.(check bool) "dominates b" true (Vv.dominates m b)

let test_concurrent_detection_after_partition () =
  (* The classic scenario: both replicas update independently. *)
  let base = Vv.of_list [ (1, 1) ] in
  let at_1 = Vv.bump base 1 in
  let at_2 = Vv.bump base 2 in
  Alcotest.(check bool) "concurrent" true (Vv.concurrent at_1 at_2);
  (* After replica 1 adopts the merge and updates again, it dominates. *)
  let resolved = Vv.bump (Vv.merge at_1 at_2) 1 in
  Alcotest.(check bool) "resolution dominates 1" true (Vv.dominates resolved at_1);
  Alcotest.(check bool) "resolution dominates 2" true (Vv.dominates resolved at_2)

let test_codec_roundtrip () =
  let cases =
    [ Vv.empty; Vv.singleton 0 1; Vv.of_list [ (1, 2); (7, 9); (42, 1) ] ]
  in
  List.iter
    (fun v ->
      match Vv.decode (Vv.encode v) with
      | None -> Alcotest.fail "decode failed"
      | Some v' -> Alcotest.check vv "roundtrip" v v')
    cases

let test_decode_rejects_garbage () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Vv.decode s = None))
    [ "1:"; "x:1"; "1:-2"; "1:2,,3:4"; "1" ]

(* The Printf-free encoder writes the bytes of the Printf form it
   replaced, and decodes back, at the edges of [int] too. *)
let printf_encode v =
  String.concat "," (List.map (fun (r, n) -> Printf.sprintf "%d:%d" r n) (Vv.to_list v))

let codec_law =
  let edge = QCheck.Gen.oneofl [ 0; 1; 9; 10; 0xffffffff; max_int ] in
  let rid =
    QCheck.Gen.(frequency [ (3, int_bound 70); (1, edge); (1, oneofl [ -1; -10; min_int ]) ])
  in
  let count = QCheck.Gen.(frequency [ (3, int_range 1 1000); (1, edge) ]) in
  QCheck.Test.make ~name:"encode matches the Printf form and decodes back" ~count:500
    (QCheck.make ~print:Vv.to_string
       QCheck.Gen.(map Vv.of_list (list_size (int_bound 6) (pair rid count))))
    (fun v ->
      String.equal (Vv.encode v) (printf_encode v)
      && match Vv.decode (Vv.encode v) with Some v' -> Vv.equal v v' | None -> false)

let suite =
  [
    case "empty vector" test_empty;
    case "bump and get" test_bump_and_get;
    case "zero counts normalized" test_zero_counts_normalized;
    case "of_list later bindings win" test_of_list_later_bindings_win;
    case "negative counts rejected" test_negative_rejected;
    case "compare: all four cases" test_compare_cases;
    case "merge is least upper bound" test_merge_is_lub;
    case "partition scenario" test_concurrent_detection_after_partition;
    case "encode/decode roundtrip" test_codec_roundtrip;
    case "decode rejects garbage" test_decode_rejects_garbage;
  ]
  @ [ QCheck_alcotest.to_alcotest codec_law ]
