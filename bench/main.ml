(* The benchmark harness: regenerates every reproduced table/figure of
   the paper's evaluation and every ablation and system experiment
   (Experiments.names: E1-E10, F2, A1-A5, CHAOS, WAL, OBSLAG,
   RECONSCALE, MEMBER, CONSENSUS, HEALTH, DELTA, MERGE, SCALE; see
   DESIGN.md and EXPERIMENTS.md), then runs bechamel microbenchmarks for
   the two timing-sensitive claims (layer crossing, shadow commit), for
   directory lookup and insert at 1k/10k/100k entries, and for delta
   propagation's hashing (chunk split, digest, one 128-byte-edit pull).

   Usage:
     bench/main.exe                   run everything
     bench/main.exe e4 e6             run selected experiments
     bench/main.exe micro             run only the microbenchmarks
     bench/main.exe --smoke           fast subset (CI; no microbenchmarks)
     bench/main.exe --json out.json   also write verdicts and metrics as JSON
     bench/main.exe --scale-ops N     trace length for the SCALE benchmark
     bench/main.exe --scale-floor F   fail SCALE below F sim-ops/sec (CI gate)
     bench/main.exe --trace-out f     stream SCALE spans to f as Chrome
                                      trace-event JSONL (see Trace_export)
     bench/main.exe --check-schema f  check that f carries every key its
                                      experiments declare (Experiments.schema) *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)

let get = function
  | Ok v -> v
  | Error e -> failwith ("bench setup failed: " ^ Errno.to_string e)

(* E1 microbench: getattr through 0/2/4/8 null layers. *)
let micro_layer_tests () =
  let disk = Disk.create ~nblocks:2048 ~block_size:1024 () in
  let t = ref 0 in
  let fs = get (Ufs.mkfs ~now:(fun () -> incr t; !t) disk) in
  let base = Ufs_vnode.root fs in
  List.map
    (fun depth ->
      let v = Null_layer.wrap_depth depth base in
      Test.make
        ~name:(Printf.sprintf "getattr/depth=%d" depth)
        (Staged.stage (fun () -> ignore (v.Vnode.getattr ()))))
    [ 0; 2; 4; 8 ]

(* E8 microbench: shadow-commit a whole file of each size. *)
let micro_shadow_tests () =
  List.map
    (fun size ->
      let disk = Disk.create ~nblocks:16384 ~block_size:1024 () in
      let t = ref 0 in
      let fs = get (Ufs.mkfs ~now:(fun () -> incr t; !t) disk) in
      let root = Ufs_vnode.root fs in
      let fid = { Ids.issuer = 1; uniq = 1 } in
      let data = String.make size 'x' in
      Test.make
        ~name:(Printf.sprintf "shadow-install/%dKiB" (size / 1024))
        (Staged.stage (fun () -> get (Shadow.install ~dir:root fid ~data))))
    [ 1024; 8192; 65536 ]

(* Directory index: a name lookup and an insert on an n-entry Ficus
   directory.  Both are map operations, so the per-op cost should stay
   close to flat from 1k to 100k entries.  The whole-file encode every
   update and merge pays is linear, and timed beside them. *)
let micro_fdir_tests () =
  List.concat_map
    (fun n ->
      let fid i = { Ids.issuer = 1; uniq = i } in
      let birth i = { Fdir.b_rid = 1; b_seq = i } in
      let name i = Printf.sprintf "entry-%06d" i in
      let rec fill d i =
        if i > n then d
        else
          let d =
            Fdir.add d ~rid:1 ~name:(name i) ~fid:(fid i) ~kind:Aux_attrs.Freg ~birth:(birth i)
          in
          fill (get d) (i + 1)
      in
      let d = fill (Fdir.empty 1) 1 in
      let probe = name (n / 2) in
      [
        Test.make
          ~name:(Printf.sprintf "fdir-lookup/%dk" (n / 1000))
          (Staged.stage (fun () -> ignore (Fdir.find_live d probe)));
        Test.make
          ~name:(Printf.sprintf "fdir-add/%dk" (n / 1000))
          (Staged.stage (fun () ->
               ignore
                 (Fdir.add d ~rid:1 ~name:"fresh" ~fid:(fid (n + 1)) ~kind:Aux_attrs.Freg
                    ~birth:(birth (n + 1)))));
        Test.make
          ~name:(Printf.sprintf "fdir-encode/%dk" (n / 1000))
          (Staged.stage (fun () -> ignore (Fdir.encode d)));
      ])
    [ 1_000; 10_000; 100_000 ]

(* Delta propagation's hashing: the content-defined split and the whole
   MD5 of a 256 KiB file, the re-split of its map around a 128-byte
   overwrite, and one propagation step of a 128-byte edit to it (the
   origin's write, then the peer's delta pull and shadow install), all
   on full-entropy bytes. *)
let micro_delta_tests () =
  let size = 256 * 1024 in
  let synth seed =
    String.concat "" (List.init (size / 16) (fun i -> Digest.string (Printf.sprintf "%s-%d" seed i)))
  in
  let data = synth "micro" in
  let cluster =
    Cluster.create ~selection:Logical.Prefer_local ~disk_blocks:2048
      ~block_size:4096 ~cache_capacity:2048 ~nhosts:2 ()
  in
  let vref = get (Cluster.create_volume cluster ~on:[ 0; 1 ]) in
  let root0 = get (Cluster.logical_root cluster 0 vref) in
  let fv = get (root0.Vnode.create "big") in
  get (Vnode.write_all fv data);
  let (_ : int) = Cluster.run_propagation cluster in
  let phys1 = Option.get (Cluster.replica (Cluster.host cluster 1) vref) in
  let fid = (Option.get (Fdir.find_live (get (Physical.fetch_dir phys1 [])) "big")).Fdir.fid in
  let host0 = Cluster.host_name (Cluster.host cluster 0) in
  let connect () = Cluster.connect_from cluster 1 ~host:host0 ~vref ~rid:1 in
  let edits = ref 0 in
  let map = Chunking.split data in
  let edited =
    String.sub data 0 (size / 2) ^ String.make 128 '!'
    ^ String.sub data ((size / 2) + 128) ((size / 2) - 128)
  in
  [
    Test.make ~name:"chunking/split-256k" (Staged.stage (fun () -> ignore (Chunking.split data)));
    Test.make ~name:"chunking/resplit-256k"
      (Staged.stage (fun () -> ignore (Chunking.resplit ~old:data map edited)));
    Test.make ~name:"digest/256KiB" (Staged.stage (fun () -> ignore (Chunking.digest_hex data)));
    Test.make ~name:"delta-pull/128B-edit"
      (Staged.stage (fun () ->
           incr edits;
           get (fv.Vnode.write ~off:(size / 2) (String.make 128 (Char.chr (!edits land 0xff))));
           ignore
             (get (Delta.pull_file ~via:"prop" ~local:phys1 ~connect ~origin_rid:1 [ fid ]))));
  ]

(* The buffer cache, 256 blocks and full: a hit, and a miss that evicts
   (a cyclic walk over 257 blocks, so the least recently used block is
   always the next one wanted). *)
let micro_cache_tests () =
  let walk ~blocks ~from =
    let c = Block_cache.create ~capacity:256 (Disk.create ~nblocks:1024 ~block_size:1024 ()) in
    for i = 0 to 255 do
      ignore (get (Block_cache.read c i))
    done;
    let next = ref from in
    fun () ->
      ignore (Block_cache.read c !next);
      next := if !next + 1 = blocks then 0 else !next + 1
  in
  [
    Test.make ~name:"block-cache/hit" (Staged.stage (walk ~blocks:256 ~from:0));
    Test.make ~name:"block-cache/miss-evict" (Staged.stage (walk ~blocks:257 ~from:256));
  ]

(* The journal's record checksum over one 4 KiB block. *)
let micro_journal_tests () =
  let block = Bytes.init 4096 (fun i -> Char.chr (i * 131 land 0xff)) in
  [
    Test.make ~name:"journal/checksum-4k"
      (Staged.stage (fun () -> ignore (Journal.checksum ~seed:0 block 0 4096)));
  ]

(* Formatting a replica disk of the benchmark's [zipf_replay] workload:
   16,384 blocks of 512 bytes, 12,288 inodes; and a one-entry change to
   a 1,024-entry DIR file (about 50 KiB at 1 KiB blocks) through
   [Vnode.overwrite], alternating between the two versions, so each run
   writes the changed block and the inode.  Then a 2,048-entry UFS
   directory at 2 KiB blocks (about 45 KiB of 16-digit hex names, as
   the [bigdir] replicas' storage directories hold): a create and an
   unlink of one more name, and a shadow commit (create a shadow file,
   rename it over an existing name). *)
let micro_ufs_tests () =
  let disk = Disk.create ~nblocks:16_384 ~block_size:512 () in
  let dir renamed =
    let rec fill d i =
      if i > 1024 then d
      else
        let name = if i = renamed then Printf.sprintf "entry-X%05d" i else Printf.sprintf "entry-%06d" i in
        fill
          (get
             (Fdir.add d ~rid:1 ~name ~fid:{ Ids.issuer = 1; uniq = i } ~kind:Aux_attrs.Freg
                ~birth:{ Fdir.b_rid = 1; b_seq = i }))
          (i + 1)
    in
    Fdir.encode (fill (Fdir.empty 1) 1)
  in
  let versions = [| dir 0; dir 512 |] in
  let t = ref 0 in
  let fs = get (Ufs.mkfs ~now:(fun () -> incr t; !t) (Disk.create ~nblocks:4096 ~block_size:1024 ())) in
  let file = get ((Ufs_vnode.root fs).Vnode.create "DIR") in
  get (Vnode.overwrite file versions.(0));
  let turn = ref 0 in
  let big_fs = get (Ufs.mkfs ~now:(fun () -> incr t; !t) (Disk.create ~nblocks:2048 ~block_size:2048 ())) in
  let big = get (Ufs.mkdir big_fs ~dir:(Ufs.root big_fs) "big") in
  let shared = get (Ufs.create big_fs ~dir:(Ufs.root big_fs) "shared") in
  for i = 0 to 2047 do
    get (Ufs.link big_fs ~dir:big (Printf.sprintf "%016x" (i * 7919)) shared)
  done;
  let target = Printf.sprintf "%016x" (1024 * 7919) in
  [
    Test.make ~name:"ufs/mkfs-16k"
      (Staged.stage (fun () -> ignore (get (Ufs.mkfs ~ninodes:12_288 ~now:(fun () -> 0) disk))));
    Test.make ~name:"ufs/dir-overwrite-1k"
      (Staged.stage (fun () ->
           turn := 1 - !turn;
           get (Vnode.overwrite file versions.(!turn))));
    Test.make ~name:"ufs/dir-create-2k"
      (Staged.stage (fun () ->
           ignore (get (Ufs.create big_fs ~dir:big "new-name"));
           get (Ufs.unlink big_fs ~dir:big "new-name")));
    Test.make ~name:"ufs/shadow-commit-2k"
      (Staged.stage (fun () ->
           ignore (get (Ufs.create big_fs ~dir:big "shadow"));
           get (Ufs.rename big_fs ~sdir:big ~sname:"shadow" ~ddir:big ~dname:target)));
  ]

let run_micro () =
  let tests =
    micro_layer_tests () @ micro_shadow_tests () @ micro_fdir_tests () @ micro_delta_tests ()
    @ micro_cache_tests () @ micro_journal_tests () @ micro_ufs_tests ()
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "\nMicrobenchmarks (bechamel, monotonic clock)\n";
  Printf.printf "  %-28s %14s\n" "benchmark" "ns/op";
  Printf.printf "  %s\n" (String.make 44 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | Some [] | None -> nan
          in
          Printf.printf "  %-28s %14.1f\n" name ns)
        analyzed)
    tests;
  Printf.printf "  %s\n%!" (String.make 44 '-')

(* ------------------------------------------------------------------ *)

let print_summary verdicts =
  Printf.printf "\n";
  Printf.printf "Reproduction summary (paper claim vs. measured)\n";
  Printf.printf "  %s\n" (String.make 76 '=');
  List.iter
    (fun v ->
      Printf.printf "  %-4s %-9s %s\n" v.Experiments.experiment
        (if v.Experiments.holds then "HOLDS" else "FAILS")
        v.Experiments.claim;
      Printf.printf "       measured: %s\n" v.Experiments.detail)
    verdicts;
  let failed = List.filter (fun v -> not v.Experiments.holds) verdicts in
  Printf.printf "  %s\n" (String.make 76 '=');
  Printf.printf "  %d/%d claims reproduced\n%!"
    (List.length verdicts - List.length failed)
    (List.length verdicts)

let write_json path ~mode verdicts =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Bench_json.to_string ~mode verdicts));
  Printf.printf "\nWrote %s\n%!" path

(* CI runs this on its artifacts.  The required keys are not listed
   here: they follow from the experiments the file names. *)
let check_schema path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "--check-schema: %s: %s\n" path msg;
        exit 1)
      fmt
  in
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail "cannot read: %s" msg
  in
  match Bench_json.parse contents with
  | Error msg -> fail "not JSON: %s" msg
  | Ok doc -> (
    match Bench_json.missing_keys doc with
    | [] -> Printf.printf "%s: every declared key present\n%!" path
    | missing -> fail "missing key(s): %s" (String.concat ", " missing))

(* The fast, deterministic subset for CI: no timing-sensitive
   experiments (E1 is wall-clock based), no long parameter sweeps (E8's
   four sizes count device writes in under a second), no bechamel runs.
   SCALE runs at a reduced trace length (see below) so the smoke
   artifact still carries the full JSON schema. *)
let smoke_names =
  [ "e2"; "e3"; "e4"; "e6"; "e7"; "e8"; "e9"; "e10"; "f2"; "a1"; "a3"; "a4"; "a5"; "chaos"; "wal";
    "obslag"; "reconscale"; "member"; "consensus"; "health"; "delta"; "merge";
    "scale" ]

let smoke_scale_ops = 20_000

let int_arg flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ ->
    Printf.eprintf "%s requires a positive integer, got %S\n" flag v;
    exit 2

let float_arg flag v =
  match float_of_string_opt v with
  | Some f when f >= 0.0 -> f
  | _ ->
    Printf.eprintf "%s requires a non-negative number, got %S\n" flag v;
    exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let scale_ops_set = ref false in
  let rec parse args (json, smoke, rest) =
    match args with
    | [] -> (json, smoke, List.rev rest)
    | "--json" :: path :: tl -> parse tl (Some path, smoke, rest)
    | [ "--json" ] ->
      Printf.eprintf "--json requires a path\n";
      exit 2
    | "--smoke" :: tl -> parse tl (json, true, rest)
    | "--check-schema" :: path :: _ ->
      (* A standalone mode: validate and stop. *)
      check_schema path;
      exit 0
    | [ "--check-schema" ] ->
      Printf.eprintf "--check-schema requires a path\n";
      exit 2
    | "--scale-ops" :: v :: tl ->
      Experiments.scale_ops := int_arg "--scale-ops" v;
      scale_ops_set := true;
      parse tl (json, smoke, rest)
    | "--scale-floor" :: v :: tl ->
      Experiments.scale_floor := float_arg "--scale-floor" v;
      parse tl (json, smoke, rest)
    | "--trace-out" :: path :: tl ->
      Experiments.scale_trace_out := Some path;
      parse tl (json, smoke, rest)
    | ([ "--scale-ops" ] | [ "--scale-floor" ] | [ "--trace-out" ]) as a ->
      Printf.eprintf "%s requires a value\n" (List.hd a);
      exit 2
    | a :: tl -> parse tl (json, smoke, a :: rest)
  in
  let json, smoke, names = parse args (None, false, []) in
  if smoke && not !scale_ops_set then Experiments.scale_ops := smoke_scale_ops;
  let mode =
    if smoke then "smoke"
    else if names = [] then "full"
    else String.concat "+" names
  in
  (* An experiment that dies — setup failure, unexpected exception —
     must still surface as a failing verdict: the JSON gets written, the
     summary shows the crash, and the process exits non-zero, so CI can
     never mistake a crashed run for a clean one. *)
  let run_one name =
    match Experiments.run_by_name name with
    | Some v -> Some v
    | None ->
      Printf.eprintf "unknown experiment %S (known: %s)\n" name
        (String.concat ", " Experiments.names);
      exit 2
    | exception e ->
      Printf.printf "  => %s: CRASHED (%s)\n%!" (String.uppercase_ascii name)
        (Printexc.to_string e);
      Some
        {
          Experiments.experiment = String.uppercase_ascii name;
          claim = "(experiment crashed)";
          holds = false;
          detail = Printexc.to_string e;
          metrics = [];
        }
  in
  let run_names names =
    List.filter_map
      (fun name ->
        if name = "micro" then begin
          run_micro ();
          None
        end
        else run_one name)
      names
  in
  let verdicts =
    match (smoke, names) with
    | true, [] -> run_names smoke_names
    | true, _ ->
      Printf.eprintf "--smoke takes no experiment names\n";
      exit 2
    | false, [] ->
      let verdicts = run_names Experiments.names in
      run_micro ();
      verdicts
    | false, [ "micro" ] ->
      run_micro ();
      []
    | false, names -> run_names names
  in
  if verdicts <> [] then print_summary verdicts;
  (match json with Some path -> write_json path ~mode verdicts | None -> ());
  if List.exists (fun v -> not v.Experiments.holds) verdicts then exit 1
