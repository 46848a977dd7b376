(* Ficus directory files: OR-set merge, collision repair, tombstone GC. *)

open Util
module Vv = Version_vector

let fid i = { Ids.issuer = 1; uniq = i }
let birth rid seq = { Fdir.b_rid = rid; b_seq = seq }

let add d ~rid ~name ~f ~b =
  ok (Fdir.add d ~rid ~name ~fid:f ~kind:Aux_attrs.Freg ~birth:b)

let live_names d = Fdir.live d |> List.map fst |> List.sort compare

let test_add_and_lookup () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  Alcotest.(check (list string)) "names" [ "a" ] (live_names d);
  let e = Option.get (Fdir.find_live d "a") in
  Alcotest.(check bool) "fid" true (Ids.fid_equal e.Fdir.fid (fid 2));
  Alcotest.(check bool) "by fid" true (Fdir.find_by_fid d (fid 2) <> None);
  Alcotest.(check int) "vv bumped" 1 (Vv.get (Fdir.vv d) 1)

let test_add_duplicate_name_rejected () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  expect_err Errno.EEXIST
    (Fdir.add d ~rid:1 ~name:"a" ~fid:(fid 3) ~kind:Aux_attrs.Freg ~birth:(birth 1 3))

let test_add_invalid_names_rejected () =
  let d = Fdir.empty 1 in
  List.iter
    (fun name ->
      expect_err Errno.EINVAL
        (Fdir.add d ~rid:1 ~name ~fid:(fid 2) ~kind:Aux_attrs.Freg ~birth:(birth 1 2)))
    [ ""; "a/b"; "@handle"; ".#ficus#open"; String.make 201 'x' ]

let test_kill_makes_tombstone () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  let d = ok (Fdir.kill d ~rid:1 (birth 1 2)) in
  Alcotest.(check (list string)) "gone from live view" [] (live_names d);
  Alcotest.(check int) "tombstone retained" 1 (List.length (Fdir.entries d));
  expect_err Errno.ENOENT (Fdir.kill d ~rid:1 (birth 1 2))

let test_insert_insert_merge () =
  let base = Fdir.empty 1 in
  let at1 = add base ~rid:1 ~name:"x" ~f:{ Ids.issuer = 1; uniq = 5 } ~b:(birth 1 5) in
  let at2 = add base ~rid:2 ~name:"y" ~f:{ Ids.issuer = 2; uniq = 5 } ~b:(birth 2 5) in
  let r = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] at1 at2 in
  Alcotest.(check (list string)) "union" [ "x"; "y" ] (live_names r.Fdir.merged);
  Alcotest.(check int) "one materialize" 1
    (List.length
       (List.filter (function Fdir.Materialize _ -> true | _ -> false) r.Fdir.actions))

let test_delete_wins_over_live () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  (* Replica 2 saw the entry and killed it. *)
  let at2 = ok (Fdir.kill d ~rid:2 (birth 1 2)) in
  let r = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] d at2 in
  Alcotest.(check (list string)) "deleted" [] (live_names r.Fdir.merged);
  Alcotest.(check int) "one unmaterialize" 1
    (List.length
       (List.filter (function Fdir.Unmaterialize _ -> true | _ -> false) r.Fdir.actions))

let test_merge_idempotent () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  let r1 = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] d d in
  Alcotest.(check (list string)) "same live view" (live_names d) (live_names r1.Fdir.merged);
  let r2 = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] r1.Fdir.merged d in
  Alcotest.(check (list string)) "still same" (live_names d) (live_names r2.Fdir.merged)

let test_merge_symmetric_convergence () =
  let base = Fdir.empty 1 in
  let at1 = add base ~rid:1 ~name:"x" ~f:{ Ids.issuer = 1; uniq = 5 } ~b:(birth 1 5) in
  let at2 = add base ~rid:2 ~name:"y" ~f:{ Ids.issuer = 2; uniq = 5 } ~b:(birth 2 5) in
  let m12 = (Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] at1 at2).Fdir.merged in
  let m21 = (Fdir.merge ~local_rid:2 ~remote_rid:1 ~peers:[ 1; 2 ] at2 at1).Fdir.merged in
  Alcotest.(check (list string)) "same entries" (live_names m12) (live_names m21);
  Alcotest.check vv_testable "same vv" (Fdir.vv m12) (Fdir.vv m21)

let test_collision_repair_deterministic () =
  let base = Fdir.empty 1 in
  let at1 = add base ~rid:1 ~name:"n" ~f:{ Ids.issuer = 1; uniq = 9 } ~b:(birth 1 9) in
  let at2 = add base ~rid:2 ~name:"n" ~f:{ Ids.issuer = 2; uniq = 3 } ~b:(birth 2 3) in
  let r = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] at1 at2 in
  let names = live_names r.Fdir.merged in
  Alcotest.(check int) "both kept" 2 (List.length names);
  Alcotest.(check bool) "older birth keeps plain name" true (List.mem "n" names);
  Alcotest.(check bool) "younger renamed" true (List.mem "n#2.3" names);
  Alcotest.(check int) "collision reported" 1 (List.length r.Fdir.new_collisions);
  (* The other side computes the identical repaired view. *)
  let r' = Fdir.merge ~local_rid:2 ~remote_rid:1 ~peers:[ 1; 2 ] at2 at1 in
  Alcotest.(check (list string)) "same everywhere" names (live_names r'.Fdir.merged)

let test_collision_suffix_avoids_existing_name () =
  let base = Fdir.empty 1 in
  (* A user file already holds the repair name "n#2.3". *)
  let at1 = add base ~rid:1 ~name:"n#2.3" ~f:{ Ids.issuer = 1; uniq = 8 } ~b:(birth 1 8) in
  let at1 = add at1 ~rid:1 ~name:"n" ~f:{ Ids.issuer = 1; uniq = 9 } ~b:(birth 1 9) in
  let at2 = add base ~rid:2 ~name:"n" ~f:{ Ids.issuer = 2; uniq = 3 } ~b:(birth 2 3) in
  let r = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] at1 at2 in
  let names = live_names r.Fdir.merged in
  Alcotest.(check int) "all three kept" 3 (List.length names);
  Alcotest.(check bool) "extended suffix used" true (List.mem "n#2.3#" names)

let test_mixed_kind_name_collision () =
  (* A file and a directory created under one name in different
     partitions: both survive, deterministically disambiguated. *)
  let base = Fdir.empty 1 in
  let at1 = add base ~rid:1 ~name:"thing" ~f:{ Ids.issuer = 1; uniq = 4 } ~b:(birth 1 4) in
  let at2 =
    ok
      (Fdir.add base ~rid:2 ~name:"thing" ~fid:{ Ids.issuer = 2; uniq = 4 }
         ~kind:Aux_attrs.Fdir ~birth:(birth 2 4))
  in
  let r = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] at1 at2 in
  let live = Fdir.live r.Fdir.merged in
  Alcotest.(check int) "both kept" 2 (List.length live);
  let kinds = List.map (fun (_, e) -> e.Fdir.kind) live |> List.sort_uniq compare in
  Alcotest.(check int) "one of each kind" 2 (List.length kinds)

let test_tombstone_gc_two_replicas () =
  (* Kill at 1; merge to 2; once both replicas' known-vvs cover the death,
     the tombstone is expired on merge. *)
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  let at2 = (Fdir.merge ~local_rid:2 ~remote_rid:1 ~peers:[ 1; 2 ] (Fdir.empty 2) d).Fdir.merged in
  let d = ok (Fdir.kill d ~rid:1 (birth 1 2)) in
  (* 2 pulls from 1: sees the tombstone, applies the deletion. *)
  let at2 = (Fdir.merge ~local_rid:2 ~remote_rid:1 ~peers:[ 1; 2 ] at2 d).Fdir.merged in
  Alcotest.(check (list string)) "deleted at 2" [] (live_names at2);
  (* 1 pulls from 2: learns that 2 has seen the deletion -> GC fires. *)
  let r1 = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] d at2 in
  Alcotest.(check int) "tombstone expired at 1" 0 (List.length (Fdir.entries r1.Fdir.merged));
  (* 2 pulls from 1 again: GC fires there too, and the entry must NOT
     resurrect. *)
  let r2 = Fdir.merge ~local_rid:2 ~remote_rid:1 ~peers:[ 1; 2 ] at2 r1.Fdir.merged in
  Alcotest.(check int) "expired at 2" 0 (List.length (Fdir.entries r2.Fdir.merged));
  Alcotest.(check (list string)) "still deleted" [] (live_names r2.Fdir.merged)

let test_tombstone_not_gced_before_all_peers_know () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  let d = ok (Fdir.kill d ~rid:1 (birth 1 2)) in
  (* Three peers; only 2 has merged.  The tombstone must survive at both
     1 and 2 because 3 has not seen the deletion. *)
  let at2 = (Fdir.merge ~local_rid:2 ~remote_rid:1 ~peers:[ 1; 2; 3 ] (Fdir.empty 2) d).Fdir.merged in
  Alcotest.(check int) "tombstone survives at 2" 1 (List.length (Fdir.entries at2));
  let r1 = Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2; 3 ] d at2 in
  Alcotest.(check int) "tombstone survives at 1" 1 (List.length (Fdir.entries r1.Fdir.merged))

let test_codec_roundtrip () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"plain" ~f:(fid 2) ~b:(birth 1 2) in
  let d = add d ~rid:1 ~name:"with space & weird%chars#" ~f:(fid 3) ~b:(birth 1 3) in
  let d = ok (Fdir.kill d ~rid:1 (birth 1 2)) in
  match Fdir.decode (Fdir.encode d) with
  | None -> Alcotest.fail "decode failed"
  | Some d' ->
    Alcotest.(check (list string)) "live view" (live_names d) (live_names d');
    Alcotest.check vv_testable "vv" (Fdir.vv d) (Fdir.vv d');
    Alcotest.(check int) "entry count"
      (List.length (Fdir.entries d))
      (List.length (Fdir.entries d'))

let test_decode_rejects_garbage () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Fdir.decode s = None))
    [ "E"; "E name"; "X whatever"; "V notavv"; "E n 00000001.00000001 1.2 reg Q" ]

let test_decode_rejects_duplicate_birth () =
  let d = add (Fdir.empty 1) ~rid:1 ~name:"a" ~f:(fid 2) ~b:(birth 1 2) in
  let bytes = Fdir.encode d in
  let entry_line =
    List.find
      (fun l -> String.length l > 2 && String.sub l 0 2 = "E ")
      (String.split_on_char '\n' bytes)
  in
  Alcotest.(check bool) "well-formed file decodes" true (Fdir.decode bytes <> None);
  Alcotest.(check bool) "same birth twice rejected" true
    (Fdir.decode (bytes ^ entry_line ^ "\n") = None);
  (* The same birth under another name is still the same identity. *)
  let renamed = "E b" ^ String.sub entry_line 3 (String.length entry_line - 3) in
  Alcotest.(check bool) "same birth, other name rejected" true
    (Fdir.decode (bytes ^ renamed ^ "\n") = None)

(* ------------------------------------------------------------------ *)
(* Complexity guard: lookups and inserts on a 10k-entry directory must
   not rebuild or scan it.  Allocation is deterministic where time is
   not, and every O(n) path here (the effective-name view, a list
   rebuild) allocates at least a few words per entry. *)

let big_dir n =
  let rec go d i =
    if i > n then d
    else go (add d ~rid:1 ~name:(Printf.sprintf "f%06d" i) ~f:(fid i) ~b:(birth 1 i)) (i + 1)
  in
  go (Fdir.empty 1) 1

let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  let after = Gc.minor_words () in
  (r, int_of_float (after -. before))

let test_lookup_allocation_bounded () =
  let n = 10_000 in
  let d = big_dir n in
  let bound = 2_000 in
  let check what words =
    if words >= bound then
      Alcotest.failf "%s on a %d-entry directory allocated %d minor words (bound %d)" what n
        words bound
  in
  let found, words = minor_words_of (fun () -> Fdir.find_live d "f005000") in
  Alcotest.(check bool) "find_live hit" true (found <> None);
  check "find_live" words;
  let found, words = minor_words_of (fun () -> Fdir.find_live d "f005000#1.3") in
  Alcotest.(check bool) "repaired-name miss" true (found = None);
  check "find_live (repaired-name form)" words;
  let found, words = minor_words_of (fun () -> Fdir.find_by_fid d (fid 7_777)) in
  Alcotest.(check bool) "find_by_fid hit" true (found <> None);
  check "find_by_fid" words;
  let added, words =
    minor_words_of (fun () ->
        Fdir.add d ~rid:1 ~name:"new" ~fid:(fid (n + 1)) ~kind:Aux_attrs.Freg
          ~birth:(birth 1 (n + 1)))
  in
  Alcotest.(check bool) "add ok" true (Result.is_ok added);
  check "add" words;
  let killed, words = minor_words_of (fun () -> Fdir.kill d ~rid:1 (birth 1 4_242)) in
  Alcotest.(check bool) "kill ok" true (Result.is_ok killed);
  check "kill" words

(* ------------------------------------------------------------------ *)
(* Oracle law: the map representation against the list representation
   it replaced ({!Fdir_list}), over random add / kill / rename / link /
   merge histories at 2-3 replicas.  Names are drawn so plain names
   collide, and so some plain names look like (or exactly are) the
   "base#rid.seq" names collision repair produces. *)

type oracle_op =
  | O_add of int * string
  | O_kill of int * int  (** any entry, tombstones included *)
  | O_rename of int * int * string
  | O_link of int * int * string  (** second name for a live entry's fid *)
  | O_merge of int * int

let print_oracle_op = function
  | O_add (r, n) -> Printf.sprintf "add@%d %S" r n
  | O_kill (r, i) -> Printf.sprintf "kill@%d #%d" r i
  | O_rename (r, i, n) -> Printf.sprintf "rename@%d #%d %S" r i n
  | O_link (r, i, n) -> Printf.sprintf "link@%d #%d %S" r i n
  | O_merge (l, r) -> Printf.sprintf "merge %d<-%d" l r

let oracle_name_gen =
  QCheck.Gen.(
    map3
      (fun base suffix hashes -> base ^ suffix ^ hashes)
      (oneofl [ "a"; "b"; "a#"; "#" ])
      (frequency
         [
           (3, return "");
           (2, map2 (fun r q -> Printf.sprintf "#%d.%d" r q) (int_range 1 3) (int_range 1 14));
         ])
      (frequency [ (4, return ""); (1, return "#"); (1, return "##") ]))

let oracle_op_gen =
  QCheck.Gen.(
    let rep = int_bound 2 and idx = int_bound 20 in
    frequency
      [
        (5, map2 (fun r n -> O_add (r, n)) rep oracle_name_gen);
        (2, map2 (fun r i -> O_kill (r, i)) rep idx);
        (2, map3 (fun r i n -> O_rename (r, i, n)) rep idx oracle_name_gen);
        (1, map3 (fun r i n -> O_link (r, i, n)) rep idx oracle_name_gen);
        (3, map2 (fun l r -> O_merge (l, r)) rep rep);
      ])

let oracle_arb =
  QCheck.make
    ~print:(fun (nrep, ops) ->
      Printf.sprintf "%d replicas: %s" nrep (String.concat "; " (List.map print_oracle_op ops)))
    QCheck.Gen.(pair (int_range 2 3) (list_size (int_range 1 40) oracle_op_gen))

let show_entry e = Format.asprintf "%a" Fdir.pp_entry e
let show_opt = function None -> "-" | Some e -> show_entry e
let show_result = function Ok _ -> "ok" | Error e -> Errno.to_string e

let show_actions actions =
  List.map
    (function
      | Fdir.Materialize e -> "M " ^ show_entry e
      | Fdir.Unmaterialize e -> "U " ^ show_entry e
      | Fdir.Expire e -> "X " ^ show_entry e)
    actions

let show_collisions cs =
  List.map
    (fun (name, births) ->
      name ^ ":"
      ^ String.concat ","
          (List.map (fun b -> Printf.sprintf "%d.%d" b.Fdir.b_rid b.Fdir.b_seq) births))
    cs

(* Every observation the two representations must agree on. *)
let agree ~ctx (m : Fdir.t) (o : Fdir_list.t) =
  let fail what expected got =
    QCheck.Test.fail_reportf "%s: %s differs@.oracle: %s@.map:    %s" ctx what expected got
  in
  let same what show a b = if a <> b then fail what (show b) (show a) in
  let lines = String.concat " | " in
  same "encode" Fun.id (Fdir.encode m) (Fdir_list.encode o);
  let view l = List.map (fun (n, e) -> n ^ " = " ^ show_entry e) l in
  same "live" lines (view (Fdir.live m)) (view (Fdir_list.live o));
  same "live_fids" lines
    (List.map show_entry (Fdir.live_fids m))
    (List.map show_entry (Fdir_list.live_fids o));
  same "live_count" string_of_int (Fdir.live_count m) (List.length (Fdir_list.live o));
  same "entries" lines
    (List.map show_entry (Fdir.entries m))
    (List.map show_entry o.Fdir_list.entries);
  List.iter
    (fun (e : Fdir.entry) ->
      same "find_birth" show_opt (Fdir.find_birth m e.birth) (Fdir_list.find_birth o e.birth);
      same "find_by_fid" show_opt (Fdir.find_by_fid m e.fid) (Fdir_list.find_by_fid o e.fid))
    o.Fdir_list.entries;
  same "find_birth (absent)" show_opt
    (Fdir.find_birth m (birth 9 9))
    (Fdir_list.find_birth o (birth 9 9));
  same "find_by_fid (absent)" show_opt
    (Fdir.find_by_fid m { Ids.issuer = 9; uniq = 9 })
    (Fdir_list.find_by_fid o { Ids.issuer = 9; uniq = 9 });
  (* Effective names, plain names (of tombstones too), their repaired
     forms for every birth, and near misses around all of them. *)
  let probes =
    List.concat_map
      (fun (n, _) -> [ n; n ^ "#"; n ^ "##" ])
      (Fdir_list.live o)
    @ List.concat_map
        (fun (e : Fdir.entry) ->
          let repaired = Printf.sprintf "%s#%d.%d" e.name e.birth.b_rid e.birth.b_seq in
          [ e.name; repaired; repaired ^ "#"; repaired ^ "##"; e.name ^ "#" ])
        o.Fdir_list.entries
    @ [ "zz"; "a#1.2"; "a#1.2#"; "a#"; "#"; "a#x.y"; "a#1"; "a#01.2"; "" ]
  in
  List.iter
    (fun name ->
      same (Printf.sprintf "find_live %S" name) show_opt (Fdir.find_live m name)
        (Fdir_list.find_live o name))
    probes;
  (* The decoded copy is indistinguishable from the value it came from. *)
  match Fdir.decode (Fdir.encode m) with
  | None -> fail "decode" "a directory" "None"
  | Some d ->
    same "decode/encode" Fun.id (Fdir.encode d) (Fdir.encode m);
    same "decoded live" lines (view (Fdir.live d)) (view (Fdir.live m));
    same "decoded live_count" string_of_int (Fdir.live_count d) (Fdir.live_count m)

let run_oracle_history (nrep, ops) =
  let maps = Array.init nrep (fun r -> Fdir.empty (r + 1)) in
  let lists = Array.init nrep (fun r -> Fdir_list.empty (r + 1)) in
  let peers = List.init nrep (fun r -> r + 1) in
  let seq = ref 0 in
  let next () = incr seq; !seq in
  let same_result ctx a b =
    if show_result a <> show_result b then
      QCheck.Test.fail_reportf "%s: map %s, oracle %s" ctx (show_result a) (show_result b)
  in
  let nth_of l i = match l with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  let add_both r ~name ~fid ~kind ~birth =
    let rid = r + 1 in
    let a = Fdir.add maps.(r) ~rid ~name ~fid ~kind ~birth in
    let b = Fdir_list.add lists.(r) ~rid ~name ~fid ~kind ~birth in
    same_result (Printf.sprintf "add %S" name) a b;
    (match a, b with
     | Ok a, Ok b -> maps.(r) <- a; lists.(r) <- b
     | _, _ -> ())
  in
  let kill_both r (e : Fdir.entry) =
    let a = Fdir.kill maps.(r) ~rid:(r + 1) e.birth in
    let b = Fdir_list.kill lists.(r) ~rid:(r + 1) e.birth in
    same_result "kill" a b;
    match a, b with
    | Ok a, Ok b -> maps.(r) <- a; lists.(r) <- b; true
    | _, _ -> false
  in
  List.iteri
    (fun step op ->
      let r_of r = r mod nrep in
      (match op with
       | O_add (r, name) ->
         let r = r_of r and n = next () in
         add_both r ~name ~fid:{ Ids.issuer = r + 1; uniq = n } ~kind:Aux_attrs.Freg
           ~birth:(birth (r + 1) n)
       | O_kill (r, i) ->
         let r = r_of r in
         Option.iter (fun e -> ignore (kill_both r e)) (nth_of lists.(r).Fdir_list.entries i)
       | O_rename (r, i, name) ->
         let r = r_of r in
         Option.iter
           (fun (_, (e : Fdir.entry)) ->
             if kill_both r e then
               add_both r ~name ~fid:e.fid ~kind:e.kind ~birth:(birth (r + 1) (next ())))
           (nth_of (Fdir_list.live lists.(r)) i)
       | O_link (r, i, name) ->
         let r = r_of r in
         Option.iter
           (fun (_, (e : Fdir.entry)) ->
             add_both r ~name ~fid:e.fid ~kind:e.kind ~birth:(birth (r + 1) (next ())))
           (nth_of (Fdir_list.live lists.(r)) i)
       | O_merge (l, r) ->
         let l = r_of l and r = r_of r in
         if l <> r then begin
           (* A deferring, order-recording expiry predicate: both sides
              must consult it on the same entries in the same order. *)
           let probe log (e : Fdir.entry) =
             log := show_entry e :: !log;
             e.birth.b_seq mod 3 <> 0
           in
           let log_m = ref [] and log_l = ref [] in
           let a =
             Fdir.merge ~may_expire:(probe log_m) ~local_rid:(l + 1) ~remote_rid:(r + 1) ~peers
               maps.(l) maps.(r)
           in
           let b =
             Fdir_list.merge ~may_expire:(probe log_l) ~local_rid:(l + 1) ~remote_rid:(r + 1)
               ~peers lists.(l) lists.(r)
           in
           let lines = String.concat " | " in
           let same what x y =
             if x <> y then
               QCheck.Test.fail_reportf "merge %s differs@.oracle: %s@.map:    %s" what (lines y)
                 (lines x)
           in
           same "may_expire probes" (List.rev !log_m) (List.rev !log_l);
           same "actions" (show_actions a.Fdir.actions) (show_actions b.Fdir_list.actions);
           same "new_collisions" (show_collisions a.Fdir.new_collisions)
             (show_collisions b.Fdir_list.new_collisions);
           maps.(l) <- a.Fdir.merged;
           lists.(l) <- b.Fdir_list.merged
         end);
      Array.iteri
        (fun r m ->
          let ctx =
            Printf.sprintf "after step %d (%s), replica %d" step (print_oracle_op op) (r + 1)
          in
          agree ~ctx m lists.(r))
        maps)
    ops;
  true

let oracle_props =
  [
    QCheck.Test.make ~name:"map Fdir agrees with the list oracle" ~count:300 oracle_arb
      run_oracle_history;
  ]

let suite =
  [
    case "add and lookup" test_add_and_lookup;
    case "duplicate name rejected" test_add_duplicate_name_rejected;
    case "invalid names rejected" test_add_invalid_names_rejected;
    case "kill leaves a tombstone" test_kill_makes_tombstone;
    case "insert/insert merge" test_insert_insert_merge;
    case "delete wins over live" test_delete_wins_over_live;
    case "merge idempotent" test_merge_idempotent;
    case "merge symmetric convergence" test_merge_symmetric_convergence;
    case "collision repair deterministic" test_collision_repair_deterministic;
    case "collision suffix avoids existing names" test_collision_suffix_avoids_existing_name;
    case "mixed-kind name collision" test_mixed_kind_name_collision;
    case "tombstone GC after both replicas know" test_tombstone_gc_two_replicas;
    case "tombstone survives until all peers know" test_tombstone_not_gced_before_all_peers_know;
    case "encode/decode roundtrip" test_codec_roundtrip;
    case "decode rejects garbage" test_decode_rejects_garbage;
    case "decode rejects a duplicate birth" test_decode_rejects_duplicate_birth;
    case "lookups and inserts allocate O(log n)" test_lookup_allocation_bounded;
  ]
  @ List.map QCheck_alcotest.to_alcotest oracle_props
