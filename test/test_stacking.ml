(* Stacking claims from the paper's conclusions: "layers can indeed be
   transparently inserted between other layers, and even surround other
   layers", plus §4.3's "Many graft points for a particular volume may
   exist". *)

open Util

let test_nfs_over_nfs () =
  (* host2 mounts host1's export; host1's export is itself an NFS mount
     of host0's UFS: a two-hop chain of identical interfaces. *)
  let clock = Clock.create () in
  let net = Sim_net.create ~seed:42 ~obs:(Obs.create ()) ~indexed:true clock in
  let h0 = Sim_net.add_host net "h0" in
  let h1 = Sim_net.add_host net "h1" in
  let h2 = Sim_net.add_host net "h2" in
  let _, fs = fresh_ufs () in
  let s0 = Nfs_server.create ~obs:(Obs.create ()) net ~host:h0 in
  Nfs_server.add_export s0 ~name:"disk" (Ufs_vnode.root fs);
  let m1 = ok (Nfs_client.mount ~attr_ttl:0 ~name_ttl:0 ~obs:(Obs.create ()) net ~client:h1 ~server:h0 ~export:"disk") in
  let s1 = Nfs_server.create ~obs:(Obs.create ()) net ~host:h1 in
  Nfs_server.add_export s1 ~name:"relay" (Nfs_client.root m1);
  let m2 = ok (Nfs_client.mount ~attr_ttl:0 ~name_ttl:0 ~obs:(Obs.create ()) net ~client:h2 ~server:h1 ~export:"relay") in
  let root = Nfs_client.root m2 in
  (* Full read/write/namespace activity through both hops. *)
  let d = ok (root.Vnode.mkdir "dir") in
  let f = ok (d.Vnode.create "file") in
  ok (Vnode.write_all f "across two NFS hops");
  Alcotest.(check string) "roundtrip" "across two NFS hops" (read_file root "dir/file");
  ok (d.Vnode.rename "file" d "renamed");
  Alcotest.(check string) "rename through the chain" "across two NFS hops"
    (read_file root "dir/renamed");
  (* The data really lives in h0's UFS. *)
  let inum = ok (Ufs.dir_lookup fs (Ufs.root fs) "dir") in
  let inum = ok (Ufs.dir_lookup fs inum "renamed") in
  Alcotest.(check string) "on the origin disk" "across two NFS hops"
    (ok (Ufs.read fs inum ~off:0 ~len:64));
  (* A partition between h1 and h0 breaks h2's access too. *)
  Sim_net.set_partition net [ [ h1; h2 ]; [ h0 ] ];
  expect_err Errno.EUNREACHABLE (Result.map (fun _ -> ()) (root.Vnode.readdir ()))

let test_ficus_logical_over_nfs_relay () =
  (* The cluster already places NFS between logical and physical; check
     a null layer can be slipped between UFS and the physical layer too
     ("inserted between other layers" at a different boundary). *)
  let _, fs = fresh_ufs () in
  let counters = Counters.create () in
  let container = Null_layer.wrap ~counters (Ufs_vnode.root fs) in
  let clock = Clock.create () in
  let phys =
    ok
      (Physical.create ~obs:(Obs.create ()) ~container ~clock ~host:"h" ~vref:{ Ids.alloc = 0; vol = 1 } ~rid:1
         ~peers:[ (1, "h") ] ())
  in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "x") in
  ok (Vnode.write_all f "fine");
  Alcotest.(check string) "works through the interposed layer" "fine" (read_file root "x");
  Alcotest.(check bool) "layer actually crossed" true
    (Counters.get counters "layer.crossings" > 0)

let test_many_graft_points_same_volume () =
  (* §4.3: "Many graft points for a particular volume may exist, even
     within a single volume.  The resulting organization of volumes
     would then be a directed acyclic graph". *)
  let cluster = Cluster.create ~nhosts:2 () in
  let super = ok (Cluster.create_volume cluster ~on:[ 0 ]) in
  let shared = ok (Cluster.create_volume cluster ~on:[ 1 ]) in
  let phys0 = Option.get (Cluster.replica (Cluster.host cluster 0) super) in
  ok
    (Physical.make_graft_point phys0 ~parent:[] ~name:"projects" ~target:shared
       ~replicas:[ (1, "host1") ]);
  ok
    (Physical.make_graft_point phys0 ~parent:[] ~name:"backup" ~target:shared
       ~replicas:[ (1, "host1") ]);
  let sroot = ok (Cluster.logical_root cluster 1 shared) in
  create_file sroot "data" "one volume, two doors";
  let root0 = ok (Cluster.logical_root cluster 0 super) in
  Alcotest.(check string) "first door" "one volume, two doors"
    (read_file root0 "projects/data");
  Alcotest.(check string) "second door" "one volume, two doors"
    (read_file root0 "backup/data");
  (* One underlying volume: a write through one door is visible through
     the other, and only one graft exists. *)
  write_file root0 "projects/data" "updated";
  Alcotest.(check string) "same volume behind both" "updated" (read_file root0 "backup/data");
  let log0 = Cluster.logical (Cluster.host cluster 0) in
  Alcotest.(check int) "grafted once" 1
    (Counters.get (Logical.counters log0) "logical.autograft")

let test_crash_consistency_random_failpoints () =
  (* Inject a disk failure at a pseudo-random point during a workload;
     after "reboot" (remount, cold cache), the file system must mount
     and serve whatever committed state it holds, without a crash or a
     parse error. *)
  let attempts = 30 in
  let survived = ref 0 in
  for seed = 1 to attempts do
    let disk = Disk.create ~nblocks:4096 ~block_size:1024 () in
    let t = ref 0 in
    let now () = incr t; !t in
    let fs = ok (Ufs.mkfs ~now disk) in
    let root = Ufs_vnode.root fs in
    let rng = Random.State.make [| seed |] in
    Disk.fail_writes_after disk (Random.State.int rng 60);
    (* Run ops until the injected failure bites (or all complete). *)
    (try
       for i = 0 to 19 do
         let name = Printf.sprintf "f%d" i in
         match root.Vnode.create name with
         | Error _ -> raise Exit
         | Ok f ->
           (match Vnode.write_all f (String.make 100 'x') with
            | Error _ -> raise Exit
            | Ok () -> ());
           if i mod 3 = 0 then
             match root.Vnode.remove name with Error _ -> raise Exit | Ok () -> ()
       done
     with Exit -> ());
    Disk.clear_failures disk;
    (* Reboot: remount from the media. *)
    (match Ufs.mount ~now disk with
     | Error e -> Alcotest.failf "seed %d: remount failed: %s" seed (Errno.to_string e)
     | Ok fs2 ->
       let root2 = Ufs_vnode.root fs2 in
       (match root2.Vnode.readdir () with
        | Error e -> Alcotest.failf "seed %d: readdir failed: %s" seed (Errno.to_string e)
        | Ok entries ->
          (* Every listed file must be fully readable. *)
          List.iter
            (fun e ->
              match root2.Vnode.lookup e.Vnode.entry_name with
              | Error err ->
                Alcotest.failf "seed %d: dangling entry %s: %s" seed e.Vnode.entry_name
                  (Errno.to_string err)
              | Ok v ->
                (match Vnode.read_all v with
                 | Ok _ -> ()
                 | Error err ->
                   Alcotest.failf "seed %d: unreadable %s: %s" seed e.Vnode.entry_name
                     (Errno.to_string err)))
            entries;
          incr survived))
  done;
  Alcotest.(check int) "all crash points recoverable" attempts !survived

let suite =
  [
    case "NFS over NFS (two hops)" test_nfs_over_nfs;
    case "null layer under the physical layer" test_ficus_logical_over_nfs_relay;
    case "many graft points, one volume" test_many_graft_points_same_volume;
    case "crash consistency at random failpoints" test_crash_consistency_random_failpoints;
  ]
