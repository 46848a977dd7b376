type fd = int

type open_mode = O_rdonly | O_wronly | O_rdwr

type descriptor = {
  vnode : Vnode.t;
  mode : open_mode;
  mutable offset : int;
}

type t = {
  root : Vnode.t;
  table : (fd, descriptor) Hashtbl.t;
  mutable next_fd : int;
}

let max_fds = 256

let create ~root = { root; table = Hashtbl.create 16; next_fd = 3 (* 0-2 reserved *) }

let ( let* ) = Result.bind

let flag_of_mode = function
  | O_rdonly -> Vnode.Read_only
  | O_wronly -> Vnode.Write_only
  | O_rdwr -> Vnode.Read_write

let openf t ?(create = false) ?(trunc = false) path mode =
  if Hashtbl.length t.table >= max_fds then Error Errno.ENFILE
  else
    let* vnode =
      match Namei.walk ~root:t.root path with
      | Ok v -> Ok v
      | Error Errno.ENOENT when create ->
        let* parent, name = Namei.walk_parent ~root:t.root path in
        parent.Vnode.create name
      | Error _ as e -> e
    in
    let* attrs = vnode.Vnode.getattr () in
    let* () =
      match attrs.Vnode.kind, mode with
      | (Vnode.VDIR | Vnode.VGRAFT), (O_wronly | O_rdwr) -> Error Errno.EISDIR
      | _, _ -> Ok ()
    in
    let* () = vnode.Vnode.openv (flag_of_mode mode) in
    let* () =
      if trunc && mode <> O_rdonly then
        vnode.Vnode.setattr { Vnode.setattr_none with set_size = Some 0 }
      else Ok ()
    in
    let fd = t.next_fd in
    t.next_fd <- fd + 1;
    Hashtbl.replace t.table fd { vnode; mode; offset = 0 };
    Ok fd

let descriptor t fd =
  match Hashtbl.find_opt t.table fd with
  | Some d -> Ok d
  | None -> Error Errno.EINVAL

let close t fd =
  let* d = descriptor t fd in
  Hashtbl.remove t.table fd;
  d.vnode.Vnode.closev ()

let check_readable d =
  match d.mode with O_rdonly | O_rdwr -> Ok () | O_wronly -> Error Errno.EINVAL

let check_writable d =
  match d.mode with O_wronly | O_rdwr -> Ok () | O_rdonly -> Error Errno.EINVAL

let pread t fd ~off ~len =
  let* d = descriptor t fd in
  let* () = check_readable d in
  d.vnode.Vnode.read ~off ~len

let pwrite t fd ~off data =
  let* d = descriptor t fd in
  let* () = check_writable d in
  d.vnode.Vnode.write ~off data

let read t fd n =
  let* d = descriptor t fd in
  let* () = check_readable d in
  let* data = d.vnode.Vnode.read ~off:d.offset ~len:n in
  d.offset <- d.offset + String.length data;
  Ok data

let write t fd data =
  let* d = descriptor t fd in
  let* () = check_writable d in
  let* () = d.vnode.Vnode.write ~off:d.offset data in
  d.offset <- d.offset + String.length data;
  Ok ()

let lseek t fd pos =
  let* d = descriptor t fd in
  if pos < 0 then Error Errno.EINVAL
  else begin
    d.offset <- pos;
    Ok ()
  end

let stat t path =
  let* v = Namei.walk ~root:t.root path in
  v.Vnode.getattr ()

let mkdir t path =
  let* parent, name = Namei.walk_parent ~root:t.root path in
  let* _ = parent.Vnode.mkdir name in
  Ok ()

let unlink t path =
  let* parent, name = Namei.walk_parent ~root:t.root path in
  parent.Vnode.remove name

let rmdir t path =
  let* parent, name = Namei.walk_parent ~root:t.root path in
  parent.Vnode.rmdir name

let rename t src dst =
  let* sparent, sname = Namei.walk_parent ~root:t.root src in
  let* dparent, dname = Namei.walk_parent ~root:t.root dst in
  sparent.Vnode.rename sname dparent dname

let link t existing new_path =
  let* target = Namei.walk ~root:t.root existing in
  let* parent, name = Namei.walk_parent ~root:t.root new_path in
  parent.Vnode.link target name

let readdir t path =
  let* v = Namei.walk ~root:t.root path in
  let* entries = v.Vnode.readdir () in
  Ok (List.map (fun e -> e.Vnode.entry_name) entries)

let read_file t path =
  let* v = Namei.walk ~root:t.root path in
  Vnode.read_all v

let write_file t path data =
  let* fd = openf t ~create:true ~trunc:true path O_wronly in
  let* () = write t fd data in
  close t fd

let open_fds t = Hashtbl.length t.table
