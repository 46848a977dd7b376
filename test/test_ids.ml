open Util

let fid = Alcotest.testable Ids.pp_fid Ids.fid_equal

let test_hex_roundtrip () =
  let cases =
    [ Ids.root_fid; { Ids.issuer = 7; uniq = 42 }; { Ids.issuer = 0xffff; uniq = 0xdeadbeef } ]
  in
  List.iter
    (fun f ->
      Alcotest.(check int) "hex length" 17 (String.length (Ids.fid_to_hex f));
      match Ids.fid_of_hex (Ids.fid_to_hex f) with
      | None -> Alcotest.fail "hex decode failed"
      | Some f' -> Alcotest.check fid "roundtrip" f f')
    cases

let test_hex_rejects_malformed () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Ids.fid_of_hex s = None))
    [ ""; "0000000100000001x"; "00000001-00000001"; "zzzzzzzz.00000001"; "short" ]

let test_at_name () =
  let f = { Ids.issuer = 3; uniq = 9 } in
  let name = Ids.fid_to_at_name f in
  Alcotest.(check bool) "starts with @" true (name.[0] = '@');
  Alcotest.check fid "roundtrip" f (Option.get (Ids.fid_of_at_name name));
  Alcotest.(check bool) "plain hex not an at-name" true
    (Ids.fid_of_at_name (Ids.fid_to_hex f) = None)

let test_fidpath () =
  let p = [ { Ids.issuer = 1; uniq = 2 }; { Ids.issuer = 3; uniq = 4 } ] in
  let s = Ids.fidpath_to_string p in
  (match Ids.fidpath_of_string s with
   | None -> Alcotest.fail "fidpath decode failed"
   | Some p' ->
     Alcotest.(check int) "length" 2 (List.length p');
     List.iter2 (fun a b -> Alcotest.check fid "component" a b) p p');
  Alcotest.(check bool) "empty path" true (Ids.fidpath_of_string "" = Some [])

let test_compare_total_order () =
  let a = { Ids.issuer = 1; uniq = 5 } in
  let b = { Ids.issuer = 1; uniq = 6 } in
  let c = { Ids.issuer = 2; uniq = 0 } in
  Alcotest.(check bool) "a < b" true (Ids.fid_compare a b < 0);
  Alcotest.(check bool) "b < c" true (Ids.fid_compare b c < 0);
  Alcotest.(check bool) "a = a" true (Ids.fid_compare a a = 0)

(* The Printf-free hex writer makes the bytes of ["%08x.%08x"]; every
   32-bit component, 0 and 0xffffffff included, decodes back. *)
let hex_law =
  let part =
    QCheck.Gen.(
      frequency [ (3, int_bound 0xffffffff); (1, oneofl [ 0; 0xf; 0x10; 0xffffffff ]) ])
  in
  QCheck.Test.make ~name:"fid hex matches the Printf form and decodes back" ~count:500
    (QCheck.make ~print:Ids.fid_to_hex
       QCheck.Gen.(map2 (fun issuer uniq -> { Ids.issuer; uniq }) part part))
    (fun f ->
      let hex = Ids.fid_to_hex f in
      String.equal hex (Printf.sprintf "%08x.%08x" f.Ids.issuer f.Ids.uniq)
      && match Ids.fid_of_hex hex with Some f' -> Ids.fid_equal f f' | None -> false)

(* Past 32 bits the name widens, as Printf's does (and no longer
   decodes as a 17-character name). *)
let test_hex_wide_components () =
  List.iter
    (fun f ->
      Alcotest.(check string) "Printf form"
        (Printf.sprintf "%08x.%08x" f.Ids.issuer f.Ids.uniq)
        (Ids.fid_to_hex f))
    [ { Ids.issuer = 0x100000000; uniq = 0 }; { Ids.issuer = max_int; uniq = -1 } ]

let suite =
  [
    case "hex of wide components" test_hex_wide_components;
    case "hex roundtrip" test_hex_roundtrip;
    case "hex rejects malformed" test_hex_rejects_malformed;
    case "@-name encoding" test_at_name;
    case "fidpath roundtrip" test_fidpath;
    case "fid compare total order" test_compare_total_order;
  ]
  @ [ QCheck_alcotest.to_alcotest hex_law ]
