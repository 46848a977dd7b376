(* The paper's §1 forecast, realized: "we expect to use it for
   performance monitoring, user authentication and encryption".  This
   example assembles a five-deep stack --

       syscalls -> access control -> monitoring -> Ficus logical
                -> (replication) -> Ficus physical -> encryption -> UFS

   -- where no layer knows its neighbours, and the replicated volume's
   bytes are encrypted at rest on the host that stores them.

   Run with:  dune exec examples/layered_stack.exe *)

let get = function
  | Ok v -> v
  | Error e -> failwith ("layered_stack failed: " ^ Errno.to_string e)

let () =
  (* Build a host by hand so we can slip the encryption layer between
     the physical layer and the UFS. *)
  let clock = Clock.create () in
  let obs = Obs.create () in
  let disk = Disk.create ~nblocks:4096 ~block_size:1024 () in
  let ufs = get (Ufs.mkfs ~now:(Clock.fn clock) disk) in
  let plain_container = Ufs_vnode.root ufs in
  let container = Crypt_layer.wrap ~key:"at-rest-key" plain_container in
  let vref = { Ids.alloc = 0; vol = 1 } in
  let phys =
    get (Physical.create ~obs ~container ~clock ~host:"h0" ~vref ~rid:1 ~peers:[ (1, "h0") ] ())
  in

  (* Logical layer over the (single-replica) volume. *)
  let connect ~host:_ ~vref:_ ~rid:_ = Ok (Physical.root phys) in
  let logical =
    Logical.create ~selection:Logical.Most_recent ~obs ~detector:Gossip.no_detector
      ~local_replica:(fun _ -> Some phys) ~nvc:(New_version_cache.create ()) ~host:"h0"
      ~clock ~connect ()
  in
  Logical.graft_volume logical vref ~replicas:[ (1, "h0") ];
  let lroot = get (Logical.root logical vref) in

  (* Monitoring, then an access-control credential, then syscalls. *)
  let metrics = Metrics.create () in
  let monitored = Measure_layer.wrap ~clock ~metrics lroot in

  (* The administrator prepares alice's home directory... *)
  let su = Syscall.create ~root:(Access_layer.wrap ~uid:0 monitored) in
  get (Syscall.mkdir su "inbox");
  let inbox = get (Namei.walk ~root:lroot "inbox") in
  get
    (inbox.Vnode.setattr
       { Vnode.setattr_none with Vnode.set_uid = Some 1; set_mode = Some 0o755 });

  (* ...and alice works in it through her own credential. *)
  let as_alice = Access_layer.wrap ~uid:1 monitored in
  let sys = Syscall.create ~root:as_alice in
  get (Syscall.write_file sys "inbox/mail1" "Dear Alice, the layers are stacked.");
  let fd = get (Syscall.openf sys "inbox/mail1" Syscall.O_rdonly) in
  Printf.printf "alice reads: %S\n" (get (Syscall.read sys fd 64));
  get (Syscall.close sys fd);

  (* The monitoring layer saw everything... *)
  print_endline "per-operation counts observed by the monitoring layer:";
  List.iter
    (fun (op, calls, errors) -> Printf.printf "  %-8s calls=%-3d errors=%d\n" op calls errors)
    (Measure_layer.report metrics);

  (* ...and the bytes on the UFS are ciphertext. *)
  let hexroot = get (plain_container.Vnode.lookup (Ids.fid_to_hex Ids.root_fid)) in
  let raw_dir = get (Vnode.read_all (get (hexroot.Vnode.lookup "DIR"))) in
  Printf.printf "volume root DIR file decodes without the key: %b\n"
    (Fdir.decode raw_dir <> None);

  (* The access layer actually guards: bob cannot read alice's mail
     once she locks it down. *)
  let mail = get (Namei.walk ~root:lroot "inbox/mail1") in
  get
    (mail.Vnode.setattr
       { Vnode.setattr_none with Vnode.set_uid = Some 1; set_mode = Some 0o600 });
  let as_bob = Access_layer.wrap ~uid:2 monitored in
  let bob = Syscall.create ~root:as_bob in
  (match Syscall.read_file bob "inbox/mail1" with
   | Error Errno.EACCES -> print_endline "bob is denied: EACCES"
   | Ok _ -> failwith "bob should have been denied"
   | Error e -> failwith ("unexpected: " ^ Errno.to_string e));
  print_endline "layered_stack OK"
