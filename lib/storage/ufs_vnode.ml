type Vnode.vdata += Ufs_vnode of Ufs.t * Ufs.inum

let ( let* ) = Result.bind

let to_vattrs (a : Ufs.attrs) : Vnode.attrs =
  {
    kind = (match a.kind with Ufs.Reg -> Vnode.VREG | Ufs.Dir -> Vnode.VDIR);
    size = a.size;
    nlink = a.nlink;
    mtime = a.mtime;
    mode = a.mode;
    uid = a.uid;
    gen = a.gen;
  }

let rec of_inum fs inum : Vnode.t =
  let wrap = function Ok i -> Ok (of_inum fs i) | Error _ as e -> e in
  let sibling (v : Vnode.t) =
    match v.Vnode.data with
    | Ufs_vnode (fs', i) when fs' == fs -> Ok i
    | _ -> Error Errno.EXDEV
  in
  {
    (Vnode.not_supported (Ufs_vnode (fs, inum))) with
    getattr =
      (fun () ->
        let* a = Ufs.stat fs inum in
        Ok (to_vattrs a));
    setattr =
      (fun sa ->
        let apply set = function None -> Ok () | Some v -> set v in
        let* () = apply (Ufs.truncate fs inum) sa.Vnode.set_size in
        let* () = apply (Ufs.set_mtime fs inum) sa.Vnode.set_mtime in
        let* () = apply (Ufs.set_mode fs inum) sa.Vnode.set_mode in
        apply (Ufs.set_uid fs inum) sa.Vnode.set_uid);
    lookup = (fun name -> wrap (Ufs.dir_lookup fs inum name));
    create = (fun name -> wrap (Ufs.create fs ~dir:inum name));
    mkdir = (fun name -> wrap (Ufs.mkdir fs ~dir:inum name));
    remove = (fun name -> Ufs.unlink fs ~dir:inum name);
    rmdir = (fun name -> Ufs.rmdir fs ~dir:inum name);
    rename =
      (fun sname dst_dir dname ->
        let* ddir = sibling dst_dir in
        Ufs.rename fs ~sdir:inum ~sname ~ddir ~dname);
    link =
      (fun target name ->
        let* target_inum = sibling target in
        Ufs.link fs ~dir:inum name target_inum);
    readdir =
      (fun () ->
        let* entries = Ufs.dir_entries fs inum in
        let to_dirent (name, _, kind) =
          {
            Vnode.entry_name = name;
            entry_kind = (match kind with Ufs.Reg -> Vnode.VREG | Ufs.Dir -> Vnode.VDIR);
          }
        in
        Ok (List.map to_dirent entries));
    read = (fun ~off ~len -> Ufs.read fs inum ~off ~len);
    write = (fun ~off data -> Ufs.write fs inum ~off data);
    openv = (fun _ -> Ok ());
    closev = (fun () -> Ok ());
    fsync = (fun () -> Ufs.sync fs);
    inactive = (fun () -> Ok ());
  }

let root fs = of_inum fs (Ufs.root fs)
