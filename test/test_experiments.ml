(* Keep the headline reproduction results under test: the fast
   experiments run inside `dune runtest` and must HOLD.  (The full set,
   including the slower sweeps and timing benches, runs from
   bench/main.exe.) *)

let keys_of metrics =
  List.map
    (fun (section, v) ->
      (section, match v with Experiments.Obj kvs -> List.map fst kvs | _ -> []))
    metrics

(* Each verdict must HOLD and export exactly the keys its registry entry
   declares — the schema `bench --check-schema` enforces on artifacts. *)
let verdict_holds name () =
  match Experiments.run_by_name name with
  | None -> Alcotest.failf "unknown experiment %s" name
  | Some v ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s" v.Experiments.experiment v.Experiments.claim)
      true v.Experiments.holds;
    Alcotest.(check (list (pair string (list string))))
      (name ^ ": exported keys = declared keys")
      (Experiments.schema name) (keys_of v.Experiments.metrics)

(* The JSON writer and the schema check together: synthetic verdicts
   carrying their declared keys round-trip and pass (a SCALE-only
   artifact included), and dropping one declared key fails naming it. *)
let test_schema_check () =
  let synthetic ?(drop = "") name =
    let metrics =
      List.map
        (fun (section, keys) ->
          ( section,
            Experiments.Obj
              (List.filter_map
                 (fun k -> if k = drop then None else Some (k, Experiments.Int 1))
                 keys) ))
        (Experiments.schema name)
    in
    { Experiments.experiment = String.uppercase_ascii name; claim = "a \"quoted\"\nclaim";
      holds = true; detail = "tab\there"; metrics }
  in
  let read verdicts =
    match Bench_json.parse (Bench_json.to_string ~mode:"test" verdicts) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "writer output does not parse: %s" e
  in
  let missing verdicts = Bench_json.missing_keys (read verdicts) in
  Alcotest.(check (list string)) "SCALE-only artifact" [] (missing [ synthetic "scale" ]);
  Alcotest.(check (list string)) "declared keys present" []
    (missing [ synthetic "e2"; synthetic "reconscale"; synthetic "scale" ]);
  Alcotest.(check (list string)) "dropped key named"
    [ "recon.rpcs (in reconciliation)" ]
    (missing [ synthetic "e2"; synthetic ~drop:"recon.rpcs" "reconscale"; synthetic "scale" ]);
  let values =
    Experiments.Obj
      [ ("f", Experiments.Float 21.333333333333332); ("g", Experiments.Float 2.0);
        ("s", Experiments.String "q\"\\\n"); ("b", Experiments.Bool false);
        ("l", Experiments.List [ Experiments.Int (-3) ]) ]
  in
  match read [ { (synthetic "e2") with Experiments.metrics = [ ("x", values) ] } ] with
  | Experiments.Obj top ->
    Alcotest.(check bool) "values round-trip" true (List.assoc_opt "x" top = Some values)
  | _ -> Alcotest.fail "document is not an object"

let suite =
  Alcotest.test_case "bench json schema check" `Quick test_schema_check
  :: List.map
       (fun name -> Alcotest.test_case ("experiment " ^ name) `Slow (verdict_holds name))
       [ "e2"; "e3"; "e4"; "e6"; "e9"; "e10"; "f2"; "a1"; "a3"; "a5"; "chaos"; "wal";
         "obslag"; "reconscale"; "member"; "consensus"; "health"; "delta"; "merge" ]
