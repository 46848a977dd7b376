(* The simulated NFS: statelessness, the open/close gap, cache staleness,
   stale handles after server restart, partitions. *)

open Util

let setup () =
  let clock = Clock.create () in
  let net = Sim_net.create ~seed:42 ~obs:(Obs.create ()) ~indexed:true clock in
  let server_id = Sim_net.add_host net "server" in
  let client_id = Sim_net.add_host net "client" in
  let _, fs = fresh_ufs () in
  let server = Nfs_server.create ~obs:(Obs.create ()) net ~host:server_id in
  Nfs_server.add_export server ~name:"export" (Ufs_vnode.root fs);
  (clock, net, server, server_id, client_id, fs)

let mount ?attr_ttl ?name_ttl (net, server_id, client_id) =
  ok (Nfs_client.mount ?attr_ttl ?name_ttl ~obs:(Obs.create ()) net ~client:client_id ~server:server_id ~export:"export")

let test_mount_and_basic_ops () =
  let _, net, _, sid, cid, _ = setup () in
  let m = mount (net, sid, cid) in
  let root = Nfs_client.root m in
  let d = ok (root.Vnode.mkdir "dir") in
  let f = ok (d.Vnode.create "file") in
  ok (f.Vnode.write ~off:0 "over the wire");
  Alcotest.(check string) "read back" "over the wire" (ok (Vnode.read_all f));
  let entries = ok (root.Vnode.readdir ()) in
  Alcotest.(check (list string)) "readdir" [ "dir" ]
    (List.map (fun e -> e.Vnode.entry_name) entries)

let test_unknown_export () =
  let _, net, _, sid, cid, _ = setup () in
  expect_err Errno.ENOENT
    (Result.map (fun _ -> ()) (Nfs_client.mount ~obs:(Obs.create ()) net ~client:cid ~server:sid ~export:"nope"))

let test_open_close_not_forwarded () =
  (* The defining semantic gap (paper §2.2): a layer above NFS never
     sees open/close. *)
  let _, net, server, sid, cid, _ = setup () in
  let opens = ref 0 in
  let counting =
    let base = Ufs_vnode.root (snd (fresh_ufs ())) in
    { base with Vnode.openv = (fun _ -> incr opens; Ok ()) }
  in
  Nfs_server.add_export server ~name:"export2" counting;
  let m = ok (Nfs_client.mount ~obs:(Obs.create ()) net ~client:cid ~server:sid ~export:"export2") in
  let root = Nfs_client.root m in
  ok (root.Vnode.openv Vnode.Read_only);
  ok (root.Vnode.closev ());
  Alcotest.(check int) "server never saw the open" 0 !opens;
  Alcotest.(check int) "client dropped both" 2
    (Counters.get (Nfs_client.counters m) "nfs.client.openclose_dropped")

let test_ctl_lookup_passes_through () =
  (* ...but an encoded lookup name travels fine -- the Ficus trick. *)
  let _, net, server, sid, cid, _ = setup () in
  let seen = ref None in
  let base = Ufs_vnode.root (snd (fresh_ufs ())) in
  let spying =
    { base with
      Vnode.lookup =
        (fun name ->
          if Ctl_name.is_ctl name then begin
            seen := Ctl_name.decode name;
            Ok base
          end
          else base.Vnode.lookup name);
    }
  in
  Nfs_server.add_export server ~name:"export2" spying;
  let m = ok (Nfs_client.mount ~obs:(Obs.create ()) net ~client:cid ~server:sid ~export:"export2") in
  let root = Nfs_client.root m in
  let name = ok (Ctl_name.encode ~op:"open" ~args:[ "."; "rw" ]) in
  let _ = ok (root.Vnode.lookup name) in
  match !seen with
  | Some ("open", [ "."; "rw" ]) -> ()
  | _ -> Alcotest.fail "control request did not reach the lower layer"

let test_attr_cache_staleness_and_expiry () =
  let clock, net, _, sid, cid, fs = setup () in
  let m = mount ~attr_ttl:10 (net, sid, cid) in
  let root = Nfs_client.root m in
  let f = ok (root.Vnode.create "f") in
  let size0 = (ok (f.Vnode.getattr ())).Vnode.size in
  Alcotest.(check int) "empty" 0 size0;
  (* Server-side change behind the client's back. *)
  let inum = ok (Ufs.dir_lookup fs (Ufs.root fs) "f") in
  ok (Ufs.write fs inum ~off:0 "grown");
  Alcotest.(check int) "stale cached size" 0 (ok (f.Vnode.getattr ())).Vnode.size;
  Clock.advance clock 11;
  Alcotest.(check int) "fresh after TTL" 5 (ok (f.Vnode.getattr ())).Vnode.size

let test_name_cache_staleness () =
  let clock, net, _, sid, cid, fs = setup () in
  let m = mount ~name_ttl:10 (net, sid, cid) in
  let root = Nfs_client.root m in
  let _ = ok (root.Vnode.create "old") in
  let _ = ok (root.Vnode.lookup "old") in
  (* Rename behind the client's back: the name cache still resolves the
     old name until the TTL expires. *)
  ok (Ufs.rename fs ~sdir:(Ufs.root fs) ~sname:"old" ~ddir:(Ufs.root fs) ~dname:"new");
  let stale = root.Vnode.lookup "old" in
  Alcotest.(check bool) "stale hit" true (Result.is_ok stale);
  Clock.advance clock 11;
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (root.Vnode.lookup "old"))

let test_write_invalidates_attr_cache () =
  let _, net, _, sid, cid, _ = setup () in
  let m = mount (net, sid, cid) in
  let root = Nfs_client.root m in
  let f = ok (root.Vnode.create "f") in
  let _ = ok (f.Vnode.getattr ()) in
  ok (f.Vnode.write ~off:0 "123456");
  Alcotest.(check int) "own write visible immediately" 6 (ok (f.Vnode.getattr ())).Vnode.size

let test_listing_shows_remote_create () =
  (* Listings are not cached: a second client's create shows in the
     first client's next readdir without the clock moving. *)
  let _, net, _, sid, cid, _ = setup () in
  let other = Sim_net.add_host net "other" in
  let root = Nfs_client.root (mount (net, sid, cid)) in
  let root' = Nfs_client.root (mount (net, sid, other)) in
  let names () =
    List.map (fun e -> e.Vnode.entry_name) (ok (root.Vnode.readdir ()))
  in
  Alcotest.(check (list string)) "empty" [] (names ());
  let _ = ok (root'.Vnode.create "from-other") in
  Alcotest.(check (list string)) "same tick" [ "from-other" ] (names ())

let test_stale_handles_after_restart () =
  let _, net, server, sid, cid, _ = setup () in
  let m = mount (net, sid, cid) in
  let root = Nfs_client.root m in
  let f = ok (root.Vnode.create "f") in
  Nfs_server.restart server;
  Nfs_client.flush_caches m;
  expect_err Errno.ESTALE (f.Vnode.write ~off:0 "x");
  expect_err Errno.ESTALE (Result.map (fun _ -> ()) (root.Vnode.lookup "f"));
  (* A fresh mount works again. *)
  let m2 = mount (net, sid, cid) in
  let root2 = Nfs_client.root m2 in
  let _ = ok (root2.Vnode.lookup "f") in
  ()

let test_partition_gives_unreachable () =
  let _, net, _, sid, cid, _ = setup () in
  let m = mount (net, sid, cid) in
  let root = Nfs_client.root m in
  Sim_net.set_partition net [ [ sid ]; [ cid ] ];
  expect_err Errno.EUNREACHABLE (Result.map (fun _ -> ()) (root.Vnode.readdir ()));
  (* Cached attributes still answer during the outage. *)
  let _ = ok (root.Vnode.getattr ()) in
  Sim_net.heal net;
  let _ = ok (root.Vnode.readdir ()) in
  ()

let test_rename_and_link_through_nfs () =
  let _, net, _, sid, cid, _ = setup () in
  let m = mount (net, sid, cid) in
  let root = Nfs_client.root m in
  let d1 = ok (root.Vnode.mkdir "d1") in
  let d2 = ok (root.Vnode.mkdir "d2") in
  let f = ok (d1.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "x");
  ok (d1.Vnode.rename "f" d2 "g");
  Alcotest.(check string) "moved" "x" (read_file root "d2/g");
  let g = ok (d2.Vnode.lookup "g") in
  ok (d1.Vnode.link g "back");
  Alcotest.(check string) "linked" "x" (read_file root "d1/back")

let test_error_mapping_preserved () =
  let _, net, _, sid, cid, _ = setup () in
  let m = mount (net, sid, cid) in
  let root = Nfs_client.root m in
  expect_err Errno.ENOENT (Result.map (fun _ -> ()) (root.Vnode.lookup "missing"));
  let _ = ok (root.Vnode.create "dup") in
  expect_err Errno.EEXIST (Result.map (fun _ -> ()) (root.Vnode.create "dup"));
  let d = ok (root.Vnode.mkdir "d") in
  let _ = ok (d.Vnode.create "inner") in
  expect_err Errno.ENOTEMPTY (root.Vnode.rmdir "d")

let suite =
  [
    case "mount and basic ops" test_mount_and_basic_ops;
    case "unknown export" test_unknown_export;
    case "open/close not forwarded (stateless)" test_open_close_not_forwarded;
    case "encoded lookup passes through" test_ctl_lookup_passes_through;
    case "attribute cache staleness and expiry" test_attr_cache_staleness_and_expiry;
    case "name cache staleness" test_name_cache_staleness;
    case "write invalidates attr cache" test_write_invalidates_attr_cache;
    case "an NFS listing shows another host's create in the same tick"
      test_listing_shows_remote_create;
    case "stale handles after server restart" test_stale_handles_after_restart;
    case "partition gives EUNREACHABLE" test_partition_gives_unreachable;
    case "rename and link through NFS" test_rename_and_link_through_nfs;
    case "error mapping preserved" test_error_mapping_preserved;
  ]
