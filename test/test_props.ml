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
        let net = Sim_net.create clock in
        let sid = Sim_net.add_host net "server" in
        let cid = Sim_net.add_host net "client" in
        let _, nfs_fs = Util.fresh_ufs ~blocks:4096 () in
        let server = Nfs_server.create net ~host:sid in
        Nfs_server.add_export server ~name:"e" (Ufs_vnode.root nfs_fs);
        (match Nfs_client.mount ~attr_ttl:0 ~name_ttl:0 net ~client:cid ~server:sid ~export:"e" with
         | Error _ -> false
         | Ok m ->
           run_ops_via (Nfs_client.root m) ops;
           observe_ufs direct_root = observe_ufs (Ufs_vnode.root nfs_fs)));
  ]

(* ------------------------------------------------------------------ *)
(* Whole-cluster convergence under random partitioned workloads        *)

type cl_action =
  | Cwrite of int * int     (* file index, payload tag *)
  | Cmkdir of int           (* directory index *)
  | Cnested of int * int    (* dir index, file index: write inside a dir *)
  | Cremove of int          (* file index *)

type cl_op = { host : int; action : cl_action }

let cl_action_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun f d -> Cwrite (f, d)) (int_bound 3) (int_bound 99));
        (2, map (fun d -> Cmkdir d) (int_bound 2));
        (3, map2 (fun d f -> Cnested (d, f)) (int_bound 2) (int_bound 2));
        (2, map (fun f -> Cremove f) (int_bound 3));
      ])

let print_cl_action = function
  | Cwrite (f, d) -> Printf.sprintf "w f%d %d" f d
  | Cmkdir d -> Printf.sprintf "mkdir d%d" d
  | Cnested (d, f) -> Printf.sprintf "w d%d/n%d" d f
  | Cremove f -> Printf.sprintf "rm f%d" f

let cl_arb =
  QCheck.make
    ~print:(fun (epochs : cl_op list list) ->
      String.concat " | "
        (List.map
           (fun ops ->
             String.concat ";"
               (List.map (fun o -> Printf.sprintf "h%d:%s" o.host (print_cl_action o.action)) ops))
           epochs))
    QCheck.Gen.(
      list_size (1 -- 3)
        (list_size (int_bound 7)
           (map2 (fun host action -> { host; action }) (int_bound 2) cl_action_gen)))

(* Dump a replica's full namespace as (path, contents) pairs. *)
let dump_replica phys =
  let rec walk path acc =
    match Physical.fetch_dir phys path with
    | Error _ -> acc
    | Ok fdir ->
      List.fold_left
        (fun acc (name, e) ->
          let child = path @ [ e.Fdir.fid ] in
          match e.Fdir.kind with
          | Aux_attrs.Freg ->
            (match Physical.fetch_file phys child with
             | Ok (_, data) -> (name, data) :: acc
             | Error _ -> (name, "<unstored>") :: acc)
          | Aux_attrs.Fdir | Aux_attrs.Fgraft -> walk child ((name, "<dir>") :: acc))
        acc (Fdir.live fdir)
  in
  List.sort compare (walk [] [])

let cluster_props =
  [
    prop "replicas converge after partitioned churn" ~count:25 cl_arb (fun epochs ->
        let cluster = Cluster.create ~nhosts:3 () in
        match Cluster.create_volume cluster ~on:[ 0; 1; 2 ] with
        | Error _ -> false
        | Ok vref ->
          let roots =
            List.filter_map
              (fun i -> Result.to_option (Cluster.logical_root cluster i vref))
              [ 0; 1; 2 ]
          in
          if List.length roots <> 3 then false
          else begin
            (* Each epoch: partition into singletons, apply updates at
               each host against its own replica, heal, reconcile. *)
            List.iter
              (fun ops ->
                Cluster.partition cluster [ [ 0 ]; [ 1 ]; [ 2 ] ];
                let lookup_or_create (dir : Vnode.t) name =
                  match dir.Vnode.lookup name with
                  | Ok v -> Some v
                  | Error Errno.ENOENT ->
                    (match dir.Vnode.create name with Ok v -> Some v | Error _ -> None)
                  | Error _ -> None
                in
                let write_in dir name payload =
                  match lookup_or_create dir name with
                  | Some v -> ignore (Vnode.write_all v payload)
                  | None -> ()
                in
                List.iter
                  (fun { host; action } ->
                    let root = List.nth roots host in
                    match action with
                    | Cwrite (f, data) ->
                      write_in root (Printf.sprintf "f%d" f) (Printf.sprintf "h%d:%d" host data)
                    | Cmkdir d -> ignore (root.Vnode.mkdir (Printf.sprintf "d%d" d))
                    | Cnested (d, f) ->
                      let dname = Printf.sprintf "d%d" d in
                      let dir =
                        match root.Vnode.lookup dname with
                        | Ok v -> Some v
                        | Error Errno.ENOENT ->
                          (match root.Vnode.mkdir dname with Ok v -> Some v | Error _ -> None)
                        | Error _ -> None
                      in
                      (match dir with
                       | Some dir ->
                         write_in dir (Printf.sprintf "n%d" f) (Printf.sprintf "h%d" host)
                       | None -> ())
                    | Cremove f -> ignore (root.Vnode.remove (Printf.sprintf "f%d" f)))
                  ops;
                Cluster.heal cluster;
                ignore (Cluster.run_propagation cluster);
                ignore (Cluster.converge cluster vref ~max_rounds:12 ()))
              epochs;
            (* All three replicas must hold identical trees (modulo
               unresolved file conflicts, which keep replicas on their
               own version — exclude conflicted files). *)
            let dumps =
              List.filter_map
                (fun i -> Option.map dump_replica (Cluster.replica (Cluster.host cluster i) vref))
                [ 0; 1; 2 ]
            in
            let conflicted =
              List.exists
                (fun i ->
                  match Cluster.replica (Cluster.host cluster i) vref with
                  | Some phys -> Conflict_log.pending (Physical.conflicts phys) <> []
                  | None -> false)
                [ 0; 1; 2 ]
            in
            let names_of dump = List.map fst dump in
            match dumps with
            | [ a; b; c ] ->
              if conflicted then
                (* Name spaces still converge even when contents differ. *)
                names_of a = names_of b && names_of b = names_of c
              else a = b && b = c
            | _ -> false
          end);
  ]

(* ------------------------------------------------------------------ *)
(* UFS packed directory encoding: round-trip and torn-suffix safety    *)

(* The on-disk directory format (u32 inum, u8 kind, u8 namelen, name
   bytes per entry) is what a mid-append crash tears.  parse_dir's
   contract: any byte-level truncation of a serialized directory parses
   as exactly the preceding complete entries — never a partial entry,
   never a lost earlier one. *)

let dirent_gen =
  QCheck.Gen.(
    let letter = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25) in
    let name =
      map (fun cs -> String.init (List.length cs) (List.nth cs))
        (list_size (int_range 1 8) letter)
    in
    map
      (fun (name, inum, dir) -> (name, inum + 1, if dir then Ufs.Dir else Ufs.Reg))
      (triple name (int_bound 60000) bool))

let arb_dirents =
  let print_dirent (n, i, k) =
    Printf.sprintf "(%S, %d, %s)" n i (match k with Ufs.Dir -> "Dir" | Ufs.Reg -> "Reg")
  in
  QCheck.make
    ~print:(fun l -> "[" ^ String.concat "; " (List.map print_dirent l) ^ "]")
    QCheck.Gen.(list_size (int_bound 12) dirent_gen)

let dir_codec_props =
  [
    prop "dir encoding round-trips" arb_dirents (fun entries ->
        Ufs.parse_dir (Ufs.serialize_dir entries) = entries);
    prop "dir decoding stops at the zero terminator" arb_dirents (fun entries ->
        Ufs.parse_dir (Ufs.serialize_dir entries ^ String.make 6 '\000') = entries);
    prop "torn dir suffix: every byte cut keeps exactly the complete prefix"
      ~count:100 arb_dirents
      (fun entries ->
        let s = Ufs.serialize_dir entries in
        let expect cut =
          let rec go acc off = function
            | ((name, _, _) as e) :: tl when off + 6 + String.length name <= cut ->
              go (e :: acc) (off + 6 + String.length name) tl
            | _ -> List.rev acc
          in
          go [] 0 entries
        in
        let ok = ref true in
        for cut = 0 to String.length s do
          if Ufs.parse_dir (String.sub s 0 cut) <> expect cut then ok := false
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

(* Summary pruning and batched version RPCs are pure optimizations: on
   any divergence history, driving convergence with the incremental
   pass must land every replica in exactly the state the original
   full-walk pass produces. *)
let recon_equiv_props =
  let apply_ops roots ops =
    let lookup_or_create (dir : Vnode.t) name =
      match dir.Vnode.lookup name with
      | Ok v -> Some v
      | Error Errno.ENOENT ->
        (match dir.Vnode.create name with Ok v -> Some v | Error _ -> None)
      | Error _ -> None
    in
    let write_in dir name payload =
      match lookup_or_create dir name with
      | Some v -> ignore (Vnode.write_all v payload)
      | None -> ()
    in
    List.iter
      (fun { host; action } ->
        let host = host mod 2 in
        let root = List.nth roots host in
        match action with
        | Cwrite (f, data) ->
          write_in root (Printf.sprintf "f%d" f) (Printf.sprintf "h%d:%d" host data)
        | Cmkdir d -> ignore (root.Vnode.mkdir (Printf.sprintf "d%d" d))
        | Cnested (d, f) ->
          let dname = Printf.sprintf "d%d" d in
          let dir =
            match root.Vnode.lookup dname with
            | Ok v -> Some v
            | Error Errno.ENOENT ->
              (match root.Vnode.mkdir dname with Ok v -> Some v | Error _ -> None)
            | Error _ -> None
          in
          (match dir with
           | Some dir -> write_in dir (Printf.sprintf "n%d" f) (Printf.sprintf "h%d" host)
           | None -> ())
        | Cremove f -> ignore (root.Vnode.remove (Printf.sprintf "f%d" f)))
      ops
  in
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
      step 1 0
    done
  in
  let run_scenario epochs ~full =
    let cluster = Cluster.create ~nhosts:2 () in
    match Cluster.create_volume cluster ~on:[ 0; 1 ] with
    | Error _ -> None
    | Ok vref ->
      let roots =
        List.filter_map
          (fun i -> Result.to_option (Cluster.logical_root cluster i vref))
          [ 0; 1 ]
      in
      if List.length roots <> 2 then None
      else begin
        List.iter
          (fun ops ->
            Cluster.partition cluster [ [ 0 ]; [ 1 ] ];
            apply_ops roots ops;
            Cluster.heal cluster;
            ring_reconcile cluster vref ~full)
          epochs;
        let dump i =
          Option.map dump_replica (Cluster.replica (Cluster.host cluster i) vref)
        in
        (match (dump 0, dump 1) with
         | Some a, Some b -> Some (a, b)
         | _ -> None)
      end
  in
  (* Collision-repair suffixes ("name#rid.seq") embed the fid sequence
     number, and the incremental pass legitimately allocates fewer
     summary events than the full walk, shifting later seqs — so compare
     the entry multiset with suffixes stripped, not raw names. *)
  let normalize dump =
    List.sort compare
      (List.map
         (fun (name, contents) ->
           let base =
             match String.index_opt name '#' with
             | Some i -> String.sub name 0 i
             | None -> name
           in
           (base, contents))
         dump)
  in
  [
    prop "incremental reconciliation equals the full walk" ~count:25 cl_arb
      (fun epochs ->
        match (run_scenario epochs ~full:true, run_scenario epochs ~full:false) with
        | Some (f0, f1), Some (i0, i1) ->
          (* Per-host across methods; cross-host equality is the churn
             property's business (unresolved file conflicts keep
             replicas on their own contents by design). *)
          normalize f0 = normalize i0 && normalize f1 = normalize i1
        | _ -> false);
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    (vv_props @ fdir_props @ ufs_props @ dir_codec_props @ ctl_name_props
   @ cluster_props @ recon_equiv_props)
