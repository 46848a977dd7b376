(* Property-based tests (qcheck): algebraic laws of version vectors, the
   directory-merge CRDT, UFS model conformance, and whole-cluster
   convergence under random workloads and partitions. *)

module Vv = Version_vector

let vv_gen =
  QCheck.Gen.(
    map Vv.of_list
      (list_size (int_bound 5) (pair (int_bound 4) (int_bound 6))))

let arb_vv = QCheck.make ~print:Vv.to_string vv_gen

let prop name ?(count = 200) arb f = QCheck.Test.make ~name ~count arb f

(* ------------------------------------------------------------------ *)
(* Version vector laws                                                 *)

let vv_props =
  [
    prop "merge commutative" (QCheck.pair arb_vv arb_vv) (fun (a, b) ->
        Vv.equal (Vv.merge a b) (Vv.merge b a));
    prop "merge associative" (QCheck.triple arb_vv arb_vv arb_vv) (fun (a, b, c) ->
        Vv.equal (Vv.merge a (Vv.merge b c)) (Vv.merge (Vv.merge a b) c));
    prop "merge idempotent" arb_vv (fun a -> Vv.equal (Vv.merge a a) a);
    prop "merge is an upper bound" (QCheck.pair arb_vv arb_vv) (fun (a, b) ->
        let m = Vv.merge a b in
        Vv.dominates m a && Vv.dominates m b);
    prop "bump strictly dominates" (QCheck.pair arb_vv (QCheck.int_bound 4))
      (fun (a, r) -> Vv.compare_vv (Vv.bump a r) a = Vv.Dominates);
    prop "compare antisymmetric" (QCheck.pair arb_vv arb_vv) (fun (a, b) ->
        match Vv.compare_vv a b, Vv.compare_vv b a with
        | Vv.Equal, Vv.Equal
        | Vv.Dominates, Vv.Dominated
        | Vv.Dominated, Vv.Dominates
        | Vv.Concurrent, Vv.Concurrent -> true
        | _, _ -> false);
    prop "dominates transitive" (QCheck.triple arb_vv arb_vv arb_vv) (fun (a, b, c) ->
        let m1 = Vv.merge a b and m2 = Vv.merge (Vv.merge a b) c in
        (* m2 >= m1 >= a implies m2 >= a *)
        (not (Vv.dominates m2 m1 && Vv.dominates m1 a)) || Vv.dominates m2 a);
    prop "codec roundtrip" arb_vv (fun a ->
        match Vv.decode (Vv.encode a) with Some a' -> Vv.equal a a' | None -> false);
    prop "equal iff compare Equal" (QCheck.pair arb_vv arb_vv) (fun (a, b) ->
        Vv.equal a b = (Vv.compare_vv a b = Vv.Equal));
    prop "equal and to_string ignore insertion order"
      (QCheck.make
         ~print:QCheck.Print.(pair (list (pair int int)) (list (pair int int)))
         QCheck.Gen.(
           (* Distinct ids with positive counts, and a random permutation. *)
           let* ids = map (List.sort_uniq compare) (list_size (int_bound 8) (int_bound 20)) in
           let* counts = flatten_l (List.map (fun _ -> int_range 1 6) ids) in
           let bindings = List.combine ids counts in
           let* perm = shuffle_l bindings in
           return (bindings, perm)))
      (fun (bindings, perm) ->
        let a = Vv.of_list bindings and b = Vv.of_list perm in
        Vv.equal a b && Vv.to_string a = Vv.to_string b);
  ]

(* ------------------------------------------------------------------ *)
(* Fdir merge: convergence of random divergent histories               *)

(* A random local-update script for one replica: add / kill / rename by
   index.  Applying scripts at several replicas and then gossiping
   merges around must converge every replica to the same live view. *)
type dir_op = Add of string | Kill of int | Rename of int * string

let dir_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Add (Printf.sprintf "f%d" i)) (int_bound 6));
        (2, map (fun i -> Kill i) (int_bound 8));
        (2, map2 (fun i j -> Rename (i, Printf.sprintf "r%d" j)) (int_bound 8) (int_bound 6));
      ])

let print_dir_op = function
  | Add n -> "Add " ^ n
  | Kill i -> Printf.sprintf "Kill %d" i
  | Rename (i, n) -> Printf.sprintf "Rename (%d, %s)" i n

let apply_script rid script =
  let seq = ref 100 in
  let next () = incr seq; !seq in
  let apply d op =
    match op with
    | Add name ->
      let n = next () in
      (match
         Fdir.add d ~rid ~name ~fid:{ Ids.issuer = rid; uniq = n } ~kind:Aux_attrs.Freg
           ~birth:{ Fdir.b_rid = rid; b_seq = n }
       with
       | Ok d -> d
       | Error _ -> d)
    | Kill i ->
      let live = Fdir.live d in
      if live = [] then d
      else
        let _, e = List.nth live (i mod List.length live) in
        (match Fdir.kill d ~rid e.Fdir.birth with Ok d -> d | Error _ -> d)
    | Rename (i, name) ->
      let live = Fdir.live d in
      if live = [] then d
      else
        let _, e = List.nth live (i mod List.length live) in
        let n = next () in
        (match Fdir.kill d ~rid e.Fdir.birth with
         | Error _ -> d
         | Ok d ->
           (match
              Fdir.add d ~rid ~name ~fid:e.Fdir.fid ~kind:e.Fdir.kind
                ~birth:{ Fdir.b_rid = rid; b_seq = n }
            with
            | Ok d -> d
            | Error _ -> d))
  in
  List.fold_left apply (Fdir.empty rid) script

let live_view d = Fdir.live d |> List.map (fun (n, e) -> (n, Ids.fid_to_hex e.Fdir.fid))

let gossip_until_converged replicas ~peers ~max_rounds =
  (* One round: every replica pulls from its ring successor. *)
  let n = Array.length replicas in
  let round () =
    for i = 0 to n - 1 do
      let remote = replicas.((i + 1) mod n) in
      let r =
        Fdir.merge ~local_rid:(i + 1) ~remote_rid:(((i + 1) mod n) + 1) ~peers replicas.(i)
          remote
      in
      replicas.(i) <- r.Fdir.merged
    done
  in
  let converged () =
    let v0 = live_view replicas.(0) in
    Array.for_all (fun d -> live_view d = v0) replicas
  in
  let rec go k = if converged () then true else if k = 0 then false else (round (); go (k - 1)) in
  go max_rounds

let scripts_arb =
  QCheck.make
    ~print:(fun (a, b, c) ->
      let p s = String.concat ";" (List.map print_dir_op s) in
      Printf.sprintf "[%s] [%s] [%s]" (p a) (p b) (p c))
    QCheck.Gen.(
      triple (list_size (int_bound 8) dir_op_gen) (list_size (int_bound 8) dir_op_gen)
        (list_size (int_bound 8) dir_op_gen))

let fdir_props =
  [
    prop "three divergent replicas converge" ~count:300 scripts_arb (fun (s1, s2, s3) ->
        let replicas =
          [| apply_script 1 s1; apply_script 2 s2; apply_script 3 s3 |]
        in
        gossip_until_converged replicas ~peers:[ 1; 2; 3 ] ~max_rounds:6);
    prop "merge idempotent on random states" ~count:300 scripts_arb (fun (s1, s2, _) ->
        let a = apply_script 1 s1 and b = apply_script 2 s2 in
        let m1 = (Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] a b).Fdir.merged in
        let m2 = (Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] m1 b).Fdir.merged in
        live_view m1 = live_view m2);
    prop "merge never loses unobserved entries" ~count:300 scripts_arb (fun (s1, s2, _) ->
        (* Every entry live at B and never killed anywhere stays live
           after A merges B. *)
        let a = apply_script 1 s1 and b = apply_script 2 s2 in
        let m = (Fdir.merge ~local_rid:1 ~remote_rid:2 ~peers:[ 1; 2 ] a b).Fdir.merged in
        let killed_at rep e =
          match Fdir.find_birth rep e.Fdir.birth with
          | Some { Fdir.status = Fdir.Dead _; _ } -> true
          | _ -> false
        in
        let live_in rep e =
          match Fdir.find_birth rep e.Fdir.birth with
          | Some { Fdir.status = Fdir.Live; _ } -> true
          | _ -> false
        in
        List.for_all (fun (_, e) -> killed_at a e || live_in m e) (Fdir.live b));
    prop "codec roundtrip on random states" ~count:300 scripts_arb (fun (s1, _, _) ->
        let a = apply_script 1 s1 in
        match Fdir.decode (Fdir.encode a) with
        | Some a' -> live_view a = live_view a' && Vv.equal (Fdir.vv a) (Fdir.vv a')
        | None -> false);
  ]

(* ------------------------------------------------------------------ *)
(* UFS conformance against a functional model                          *)

type fs_op =
  | Create of int * int           (* dir index, name index *)
  | WriteF of int * int * string  (* dir, name, data *)
  | Unlink of int * int
  | MkdirOp of int
  | RenameF of int * int * int * int

let fs_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun d n -> Create (d, n)) (int_bound 3) (int_bound 5));
        (4, map3 (fun d n s -> WriteF (d, n, s)) (int_bound 3) (int_bound 5)
             (string_size (int_bound 64) ~gen:printable));
        (2, map2 (fun d n -> Unlink (d, n)) (int_bound 3) (int_bound 5));
        (1, map (fun d -> MkdirOp d) (int_bound 3));
        (2,
         map
           (fun (a, b, c, d) -> RenameF (a, b, c, d))
           (quad (int_bound 3) (int_bound 5) (int_bound 3) (int_bound 5)));
      ])

let print_fs_op = function
  | Create (d, n) -> Printf.sprintf "Create(%d,%d)" d n
  | WriteF (d, n, s) -> Printf.sprintf "Write(%d,%d,%S)" d n s
  | Unlink (d, n) -> Printf.sprintf "Unlink(%d,%d)" d n
  | MkdirOp d -> Printf.sprintf "Mkdir(%d)" d
  | RenameF (a, b, c, d) -> Printf.sprintf "Rename(%d,%d->%d,%d)" a b c d

(* Model: a map from "dir/name" to contents; directories "d0".."d3"
   implicitly created on first use. *)
module Smap = Map.Make (String)

let run_model ops =
  let dir d = Printf.sprintf "d%d" (d mod 4) in
  let file d n = Printf.sprintf "%s/f%d" (dir d) (n mod 6) in
  let apply (dirs, files) op =
    match op with
    | MkdirOp d -> (Smap.add (dir d) () dirs, files)
    | Create (d, n) ->
      let dirs = Smap.add (dir d) () dirs in
      let key = file d n in
      if Smap.mem key files then (dirs, files) else (dirs, Smap.add key "" files)
    | WriteF (d, n, s) ->
      let key = file d n in
      if Smap.mem key files then (dirs, Smap.add key s files) else (dirs, files)
    | Unlink (d, n) -> (dirs, Smap.remove (file d n) files)
    | RenameF (a, b, c, d) ->
      let src = file a b and dst = file c d in
      (match Smap.find_opt src files with
       | None -> (dirs, files)
       | Some contents ->
         if Smap.mem (dir c) dirs && not (Smap.mem dst files) then
           (dirs, Smap.add dst contents (Smap.remove src files))
         else (dirs, files))
  in
  List.fold_left apply (Smap.empty, Smap.empty) ops

(* The same operation script executed through an (uncached) NFS mount
   must observe exactly what direct vnode access observes: the transport
   is semantically transparent (modulo the caches, here disabled). *)
let run_ops_via root ops =
  let dir d = Printf.sprintf "d%d" (d mod 4) in
  let file d n = Printf.sprintf "%s/f%d" (dir d) (n mod 6) in
  let ensure_dir d =
    match root.Vnode.lookup (dir d) with
    | Ok v -> Some v
    | Error Errno.ENOENT ->
      (match root.Vnode.mkdir (dir d) with Ok v -> Some v | Error _ -> None)
    | Error _ -> None
  in
  List.iter
    (fun op ->
      match op with
      | MkdirOp d -> ignore (ensure_dir d)
      | Create (d, n) ->
        (match ensure_dir d with
         | None -> ()
         | Some dv -> ignore (dv.Vnode.create (Printf.sprintf "f%d" (n mod 6))))
      | WriteF (d, n, s) ->
        (match Namei.walk ~root (file d n) with
         | Ok v -> ignore (Vnode.write_all v s)
         | Error _ -> ())
      | Unlink (d, n) ->
        (match Namei.walk ~root (dir d) with
         | Ok dv -> ignore (dv.Vnode.remove (Printf.sprintf "f%d" (n mod 6)))
         | Error _ -> ())
      | RenameF (a, b, c, d) ->
        (match Namei.walk ~root (dir a), Namei.walk ~root (dir c) with
         | Ok sv, Ok dv ->
           let dst = Printf.sprintf "f%d" (d mod 6) in
           (match dv.Vnode.lookup dst with
            | Error Errno.ENOENT ->
              ignore (sv.Vnode.rename (Printf.sprintf "f%d" (b mod 6)) dv dst)
            | Ok _ | Error _ -> ())
         | _, _ -> ()))
    ops

let run_ufs ops =
  let _, fs = Util.fresh_ufs ~blocks:4096 () in
  let root = Ufs_vnode.root fs in
  run_ops_via root ops;
  (fs, root)

let observe_ufs root =
  let contents = ref [] in
  (match root.Vnode.readdir () with
   | Error _ -> ()
   | Ok dirs ->
     List.iter
       (fun d ->
         match root.Vnode.lookup d.Vnode.entry_name with
         | Error _ -> ()
         | Ok dv ->
           (match dv.Vnode.readdir () with
            | Error _ -> ()
            | Ok files ->
              List.iter
                (fun f ->
                  match dv.Vnode.lookup f.Vnode.entry_name with
                  | Error _ -> ()
                  | Ok fv ->
                    (match Vnode.read_all fv with
                     | Ok data ->
                       contents :=
                         (d.Vnode.entry_name ^ "/" ^ f.Vnode.entry_name, data) :: !contents
                     | Error _ -> ()))
                files))
       dirs);
  List.sort compare !contents

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_fs_op ops))
    QCheck.Gen.(list_size (int_bound 40) fs_op_gen)

let ufs_props =
  [
    prop "UFS matches the functional model" ~count:150 ops_arb (fun ops ->
        let _, files = run_model ops in
        let fs, root = run_ufs ops in
        let expected = List.sort compare (Smap.bindings files) in
        let actual = observe_ufs root in
        expected = actual
        && (match Ufs.check fs with Ok () -> true | Error _ -> false));
    prop "NFS transport is semantically transparent" ~count:100 ops_arb (fun ops ->
        (* Direct stack. *)
        let _, direct_fs = Util.fresh_ufs ~blocks:4096 () in
        let direct_root = Ufs_vnode.root direct_fs in
        run_ops_via direct_root ops;
        (* Identical ops through an NFS mount (caches off). *)
        let clock = Clock.create () in
        let net = Sim_net.create ~seed:42 ~obs:(Obs.create ()) ~indexed:true clock in
        let sid = Sim_net.add_host net "server" in
        let cid = Sim_net.add_host net "client" in
        let _, nfs_fs = Util.fresh_ufs ~blocks:4096 () in
        let server = Nfs_server.create ~obs:(Obs.create ()) net ~host:sid in
        Nfs_server.add_export server ~name:"e" (Ufs_vnode.root nfs_fs);
        (match Nfs_client.mount ~attr_ttl:0 ~name_ttl:0 ~obs:(Obs.create ()) net ~client:cid ~server:sid ~export:"e" with
         | Error _ -> false
         | Ok m ->
           run_ops_via (Nfs_client.root m) ops;
           observe_ufs direct_root = observe_ufs (Ufs_vnode.root nfs_fs)));
  ]

(* ------------------------------------------------------------------ *)
(* Whole-cluster convergence under random partitioned workloads        *)

(* One random op at a host (drawn from 0..2, folded onto [hosts]): a
   top-level write, a mkdir, a write inside a directory created on
   demand, or a remove. *)
let cl_op_gen ~hosts =
  QCheck.Gen.(
    map2
      (fun host op -> op (host mod hosts))
      (int_bound 2)
      (frequency
         [
           ( 5,
             map2
               (fun f d h ->
                 [ Schedule.Write (h, Printf.sprintf "f%d" f, Printf.sprintf "h%d:%d" h d) ])
               (int_bound 3) (int_bound 99) );
           (2, map (fun d h -> [ Schedule.Mkdir (h, Printf.sprintf "d%d" d) ]) (int_bound 2));
           ( 3,
             map2
               (fun d f h ->
                 let dir = Printf.sprintf "d%d" d in
                 [ Schedule.Mkdir (h, dir);
                   Write (h, Printf.sprintf "%s/n%d" dir f, Printf.sprintf "h%d" h) ])
               (int_bound 2) (int_bound 2) );
           (2, map (fun f h -> [ Schedule.Remove (h, Printf.sprintf "f%d" f) ]) (int_bound 3));
         ]))

(* 1-3 epochs of up to 7 ops each. *)
let cl_arb ~hosts =
  QCheck.make
    ~print:(fun epochs -> String.concat " | " (List.map Schedule.to_string epochs))
    QCheck.Gen.(list_size (1 -- 3) (map List.concat (list_size (int_bound 7) (cl_op_gen ~hosts))))

(* A replica's live tree as (path, kind, content digest) triples. *)
let tree cluster vref i =
  Option.map
    (fun phys ->
      match Schedule.state phys with
      | Ok entries ->
        List.map (fun e -> Crdt_merge.(e.e_path, e.e_kind, e.e_digest)) entries
      | Error _ -> [])
    (Cluster.replica (Cluster.host cluster i) vref)

(* A cluster whose [hosts] each hold a replica and a resolved root. *)
let cl_start hosts =
  let cluster = Cluster.create ~nhosts:(List.length hosts) () in
  match Cluster.create_volume cluster ~on:hosts with
  | Error _ -> None
  | Ok vref ->
    let s = Schedule.start cluster vref in
    if List.for_all (fun i -> Result.is_ok (Schedule.root s i)) hosts then Some (cluster, vref, s)
    else None

let cluster_props =
  [
    prop "replicas converge after partitioned churn" ~count:25 (cl_arb ~hosts:3) (fun epochs ->
        match cl_start [ 0; 1; 2 ] with
        | None -> false
        | Some (cluster, vref, s) ->
          (* Each epoch: partition into singletons, apply updates at
             each host against its own replica, heal, reconcile. *)
          List.iter
            (fun ops ->
              ignore
                (Schedule.run_all s
                   ((Schedule.Partition [ [ 0 ]; [ 1 ]; [ 2 ] ] :: ops)
                   @ [ Heal; Propagate; Converge 12 ])))
            epochs;
          (* All three replicas must hold identical trees (modulo
             unresolved file conflicts, which keep replicas on their
             own version — exclude conflicted files). *)
          let trees = List.filter_map (tree cluster vref) [ 0; 1; 2 ] in
          let conflicted =
            List.exists
              (fun i ->
                match Cluster.replica (Cluster.host cluster i) vref with
                | Some phys -> Conflict_log.pending (Physical.conflicts phys) <> []
                | None -> false)
              [ 0; 1; 2 ]
          in
          let paths_of t = List.map (fun (p, _, _) -> p) t in
          match trees with
          | [ a; b; c ] ->
            if conflicted then
              (* Name spaces still converge even when contents differ. *)
              paths_of a = paths_of b && paths_of b = paths_of c
            else a = b && b = c
          | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* UFS directory format: round-trip and whole-block parsing            *)

(* A directory block is a chain of records ending exactly at the
   block's end, so every block parses on its own: what the UFS stores
   reads back as the entries made, and any cut of an image parses only
   at a block boundary, as the entries of the blocks kept. *)

let dirent_gen =
  QCheck.Gen.(
    let letter = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25) in
    let name =
      map (fun cs -> String.init (List.length cs) (List.nth cs))
        (list_size (int_range 1 8) letter)
    in
    pair name bool)

(* Up to 80 distinct names of up to 16-byte records: up to three
   512-byte blocks. *)
let arb_dirents =
  QCheck.make
    ~print:(fun l ->
      "[" ^ String.concat "; " (List.map (fun (n, dir) -> Printf.sprintf "(%S, %b)" n dir) l) ^ "]")
    QCheck.Gen.(
      map (List.sort_uniq (fun (a, _) (b, _) -> compare a b)) (list_size (int_bound 80) dirent_gen))

(* A fresh UFS of 512-byte blocks, a directory holding [names] and what
   was made: (name, inode, kind) in creation order. *)
let dir_of names =
  let disk = Disk.create ~nblocks:512 ~block_size:512 () in
  let fs = Result.get_ok (Ufs.mkfs ~ninodes:256 ~now:(fun () -> 0) disk) in
  let d = Result.get_ok (Ufs.mkdir fs ~dir:(Ufs.root fs) "d") in
  let made =
    List.map
      (fun (name, dir) ->
        let kind = if dir then Ufs.Dir else Ufs.Reg in
        (name, Result.get_ok ((if dir then Ufs.mkdir else Ufs.create) fs ~dir:d name), kind))
      names
  in
  (fs, Result.get_ok (Ufs.dir_image fs d), made)

let dir_codec_props =
  [
    prop "dir encoding round-trips" arb_dirents (fun names ->
        let fs, image, made = dir_of names in
        Result.map (List.sort compare) (Ufs.parse_dir fs image) = Ok (List.sort compare made));
    prop "torn dir suffix: every byte cut parses only at a block boundary, as the blocks kept"
      ~count:100 arb_dirents
      (fun names ->
        let fs, image, made = dir_of names in
        let entries = Result.get_ok (Ufs.parse_dir fs image) in
        let rec is_prefix a b = match a, b with [], _ -> true | x :: a, y :: b -> x = y && is_prefix a b | _ :: _, [] -> false in
        let ok = ref (List.length entries = List.length made) in
        for cut = 0 to String.length image do
          match Ufs.parse_dir fs (String.sub image 0 cut) with
          | Ok kept -> if cut mod 512 <> 0 || not (is_prefix kept entries) then ok := false
          | Error _ -> if cut mod 512 = 0 then ok := false
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Ctl-name escaping                                                   *)

let arb_bytes =
  QCheck.make
    ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size ~gen:char (int_bound 60))

let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let ctl_name_props =
  [
    prop "ctl-name escape round-trips on arbitrary bytes" ~count:500 arb_bytes
      (fun s -> Ctl_name.unescape (Ctl_name.escape s) = Some s);
    prop "ctl-name escape output never contains '#'" ~count:500 arb_bytes
      (fun s -> not (String.contains (Ctl_name.escape s) '#'));
    prop "ctl-name unescape rejects malformed %-sequences" ~count:500
      (QCheck.pair arb_bytes (QCheck.pair QCheck.char QCheck.char))
      (fun (s, (a, b)) ->
        (* Splice a literal '%' followed by two arbitrary characters into
           otherwise-clean text: unescape must accept it exactly when
           both are hex digits. *)
        let clean = Ctl_name.escape s in
        let spliced = Printf.sprintf "%s%%%c%c%s" clean a b clean in
        let well_formed = is_hex_digit a && is_hex_digit b in
        (Ctl_name.unescape spliced <> None) = well_formed);
    prop "ctl-name encode/decode round-trips args" ~count:300
      (QCheck.pair arb_bytes arb_bytes)
      (fun (a1, a2) ->
        match Ctl_name.encode ~op:"test" ~args:[ a1; a2 ] with
        | Error Errno.ENAMETOOLONG -> true (* oversized: correctly refused *)
        | Error _ -> false
        | Ok name -> Ctl_name.decode name = Some ("test", [ a1; a2 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental reconciliation equivalence                              *)

(* Incremental reconciliation's schedules add what its floors must
   survive to {!cl_op_gen}: files and directories renamed across
   directories, and reboots, which empty a server's change index and a
   puller's record of walked peers. *)
let recon_op_gen ~hosts =
  QCheck.Gen.(
    frequency
      [
        (8, cl_op_gen ~hosts);
        ( 2,
          map3
            (fun h f d ->
              [ Schedule.Rename (h mod hosts, Printf.sprintf "f%d" f, Printf.sprintf "d%d/f%d" d f) ])
            (int_bound 2) (int_bound 3) (int_bound 2) );
        ( 1,
          map3
            (fun h d e ->
              [ Schedule.Rename (h mod hosts, Printf.sprintf "d%d" d, Printf.sprintf "d%d/d%d" e d) ])
            (int_bound 2) (int_bound 2) (int_bound 2) );
        (1, map (fun h -> [ Schedule.Reboot (h mod hosts) ]) (int_bound 2));
      ])

let recon_arb ~hosts =
  QCheck.make
    ~print:(fun epochs -> String.concat " | " (List.map Schedule.to_string epochs))
    QCheck.Gen.(list_size (1 -- 3) (map List.concat (list_size (int_bound 7) (recon_op_gen ~hosts))))

(* Summary pruning and batched version RPCs are pure optimizations: on
   any divergence history, driving convergence with the incremental
   pass must land every replica in exactly the state the original
   full-walk pass produces. *)
let recon_equiv_props =
  let hosts = [ 0; 1; 2 ] in
  (* Each host pulls from the next around the ring, so a floor one host
     sends another may have been learned through the third. *)
  let ring_reconcile cluster vref ~full =
    let step me peer =
      match Cluster.replica (Cluster.host cluster me) vref with
      | None -> ()
      | Some phys ->
        let connect = Cluster.connect_from cluster me in
        let peer_host = Cluster.host_name (Cluster.host cluster peer) in
        (match connect ~host:peer_host ~vref ~rid:(peer + 1) with
         | Error _ -> ()
         | Ok remote_root ->
           let remote_rid = peer + 1 in
           ignore
             (if full then
                Reconcile.reconcile_subtree ~local:phys ~remote_root ~remote_rid []
              else Reconcile.reconcile_volume ~local:phys ~remote_root ~remote_rid ()))
    in
    for _ = 1 to 4 do
      step 0 1;
      step 1 2;
      step 2 0
    done
  in
  let run_scenario epochs ~full =
    match cl_start hosts with
    | None -> None
    | Some (cluster, vref, s) ->
      (* A reboot here is a clean one: the host's pending summary bumps
         are written first.  A crash that loses them makes the
         incremental walk prune real updates whatever the floors do
         (ROADMAP "Crash-lost summary bumps"). *)
      let apply step =
        (match step with
         | Schedule.Reboot h ->
           Option.iter
             (fun phys -> ignore (Physical.flush_summaries phys))
             (Cluster.replica (Cluster.host cluster h) vref)
         | _ -> ());
        ignore (Schedule.apply s step)
      in
      List.iter
        (fun ops ->
          let partition = Schedule.Partition (List.map (fun h -> [ h ]) hosts) in
          List.iter apply ((partition :: ops) @ [ Heal ]);
          ring_reconcile cluster vref ~full)
        epochs;
      let trees = List.filter_map (tree cluster vref) hosts in
      let unstamped =
        List.fold_left
          (fun n i ->
            match Cluster.replica (Cluster.host cluster i) vref with
            | Some phys -> n + Counters.get (Physical.counters phys) "recon.unstamped_child"
            | None -> n)
          0 hosts
      in
      if List.length trees = List.length hosts then Some (trees, unstamped) else None
  in
  (* Collision-repair suffixes ("name#rid.seq") embed the fid sequence
     number, and the incremental pass legitimately allocates fewer
     summary events than the full walk, shifting later seqs — so compare
     the entry multiset with suffixes stripped, not raw names. *)
  let normalize t =
    let base name =
      match String.index_opt name '#' with Some i -> String.sub name 0 i | None -> name
    in
    List.sort compare
      (List.map
         (fun (path, kind, digest) ->
           (String.concat "/" (List.map base (String.split_on_char '/' path)), kind, digest))
         t)
  in
  [
    prop "incremental reconciliation equals the full walk" ~count:25 (recon_arb ~hosts:3)
      (fun epochs ->
        match (run_scenario epochs ~full:true, run_scenario epochs ~full:false) with
        | Some (full, _), Some (incr, unstamped) ->
          (* Per-host across methods; cross-host equality is the churn
             property's business (unresolved file conflicts keep
             replicas on their own contents by design).  No reply may
             leave out a child the puller's merge just made live. *)
          List.for_all2 (fun f i -> normalize f = normalize i) full incr && unstamped = 0
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Most-recent reads that skip the peers this host has caught up with  *)

(* Four hosts with gossip.  Host h writes only its own file "fh", and
   only host0 renames, moving a fifth file between "x" and "y", so the
   versions of every object are totally ordered: the newest copy is one
   version, which a poll of every replica finds.  Each epoch may
   partition the hosts, and a partition lasts longer than the suspect
   timeout: a shorter one that a host never sends into is the loss the
   hint gives up (see [logical.mli]). *)
let hint_arb =
  let open QCheck.Gen in
  let write = map2 (fun h d -> Schedule.Write (h, Printf.sprintf "f%d" h, Printf.sprintf "h%d:%d" h d)) (int_bound 3) (int_bound 999) in
  let rename = return (Schedule.Rename (0, "x", "y")) in
  let ops = list_size (int_bound 3) (frequency [ (4, write); (1, rename) ]) in
  let groups =
    oneofl
      [ [ [ 0; 1 ]; [ 2; 3 ] ]; [ [ 0; 2 ]; [ 1; 3 ] ]; [ [ 0; 3 ]; [ 1; 2 ] ];
        [ [ 0 ]; [ 1; 2; 3 ] ]; [ [ 1 ]; [ 0; 2; 3 ] ]; [ [ 2 ]; [ 0; 1; 3 ] ];
        [ [ 3 ]; [ 0; 1; 2 ] ] ]
  in
  let epoch =
    map
      (fun (((part, ops1), (cut, ops2)), ((heal, ops3), rest)) ->
        let partition = match part with Some g -> [ Schedule.Partition g ] | None -> [] in
        partition @ ops1 @ [ Schedule.Tick cut ] @ ops2
        @ [ Schedule.Heal; Schedule.Tick heal ] @ ops3 @ [ Schedule.Tick rest ])
      (pair
         (pair (pair (opt groups) ops) (pair (24 -- 40) ops))
         (pair (pair (1 -- 25) ops) (1 -- 40)))
  in
  (* Host0's renames alternate direction. *)
  let toggle steps =
    let at_x = ref true in
    List.map
      (function
        | Schedule.Rename (0, _, _) ->
          let src, dst = if !at_x then ("x", "y") else ("y", "x") in
          at_x := not !at_x;
          Schedule.Rename (0, src, dst)
        | step -> step)
      steps
  in
  QCheck.make ~print:Schedule.to_string (map (fun es -> toggle (List.concat es)) (list_size (1 -- 3) epoch))

(* After every [Tick n] — run here as [n] one-tick daemon rounds, then
   the delivery of the datagrams the last round sent — each host lists
   the root and reads every file through its logical layer, and each
   answer must come from a copy {!Poll_oracle} selects: a poll of every
   replica the host's first pass can reach, during partitions as well. *)
let hint_props =
  let check cluster vref s i =
    (* The root first: it grafts the volume the oracle reads. *)
    let root = Schedule.root s i in
    match root, Poll_oracle.newest cluster vref i [] with
    | Error _, _ | _, [] -> QCheck.Test.fail_reportf "host%d: no root" i
    | Ok root, (_, dir_phys) :: _ ->
      let dir = Result.get_ok (Physical.fetch_dir dir_phys []) in
      let want = List.map fst (Fdir.live dir) in
      let got =
        match root.Vnode.readdir () with
        | Ok ents -> List.sort compare (List.map (fun e -> e.Vnode.entry_name) ents)
        | Error e -> [ Errno.to_string e ]
      in
      if got <> want then
        QCheck.Test.fail_reportf "host%d lists [%s], the oracle [%s]" i (String.concat " " got)
          (String.concat " " want);
      List.iter
        (fun (name, (e : Fdir.entry)) ->
          let got = Result.bind (Namei.walk ~root name) Vnode.read_all in
          let want = Poll_oracle.acceptable cluster vref i [ e.Fdir.fid ] in
          if not (List.mem got want) then
            let show = function Ok d -> Printf.sprintf "%S" d | Error e -> Errno.to_string e in
            QCheck.Test.fail_reportf "host%d reads %s %s, the oracle %s" i name (show got)
              (String.concat " or " (List.map show want)))
        (Fdir.live dir)
  in
  [
    prop "a hinted most-recent read selects what polling every replica selects" ~count:40
      hint_arb (fun steps ->
        let cluster =
          Cluster.create ~nhosts:4 ~gossip:Gossip.default_config ~reconcile_period:20 ()
        in
        let hosts = [ 0; 1; 2; 3 ] in
        let vref = Result.get_ok (Cluster.create_volume cluster ~on:hosts) in
        let (_ : int) = Cluster.await_membership cluster ~max_rounds:64 in
        let s = Schedule.start cluster vref in
        let setup =
          List.map (fun h -> Schedule.Create (0, Printf.sprintf "f%d" h, "")) hosts
          @ [ Schedule.Create (0, "x", ""); Propagate; Converge 10 ]
        in
        if Schedule.run s setup <> Ok () then QCheck.Test.fail_report "setup failed";
        List.iter
          (fun step ->
            match step with
            | Schedule.Tick n ->
              for _ = 1 to n do
                ignore (Cluster.tick_daemons cluster 1)
              done;
              (* Deliver what the last round sent: the law holds once
                 notifications are delivered. *)
              ignore (Cluster.pump cluster);
              List.iter (check cluster vref s) hosts
            | step -> ignore (Schedule.apply s step))
          steps;
        true);
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    (vv_props @ fdir_props @ ufs_props @ dir_codec_props @ ctl_name_props
   @ cluster_props @ recon_equiv_props @ hint_props)
