type vtype = VREG | VDIR | VGRAFT | VCTL

type attrs = {
  kind : vtype;
  size : int;
  nlink : int;
  mtime : int;
  mode : int;
  uid : int;
  gen : int;
}

type setattr = {
  set_size : int option;
  set_mtime : int option;
  set_mode : int option;
  set_uid : int option;
}

let setattr_none = { set_size = None; set_mtime = None; set_mode = None; set_uid = None }

type dirent = { entry_name : string; entry_kind : vtype }

type open_flag = Read_only | Write_only | Read_write

type vdata = ..

type vdata += No_data

type 'a io = ('a, Errno.t) result

type t = {
  data : vdata;
  getattr : unit -> attrs io;
  setattr : setattr -> unit io;
  lookup : string -> t io;
  create : string -> t io;
  mkdir : string -> t io;
  remove : string -> unit io;
  rmdir : string -> unit io;
  rename : string -> t -> string -> unit io;
  link : t -> string -> unit io;
  readdir : unit -> dirent list io;
  read : off:int -> len:int -> string io;
  write : off:int -> string -> unit io;
  openv : open_flag -> unit io;
  closev : unit -> unit io;
  fsync : unit -> unit io;
  inactive : unit -> unit io;
}

let not_supported data =
  let e _ = Error Errno.ENOTSUP in
  {
    data;
    getattr = e;
    setattr = e;
    lookup = e;
    create = e;
    mkdir = e;
    remove = e;
    rmdir = e;
    rename = (fun _ _ _ -> Error Errno.ENOTSUP);
    link = (fun _ _ -> Error Errno.ENOTSUP);
    readdir = e;
    read = (fun ~off:_ ~len:_ -> Error Errno.ENOTSUP);
    write = (fun ~off:_ _ -> Error Errno.ENOTSUP);
    openv = e;
    closev = e;
    fsync = e;
    inactive = e;
  }

let kind_to_string = function
  | VREG -> "VREG"
  | VDIR -> "VDIR"
  | VGRAFT -> "VGRAFT"
  | VCTL -> "VCTL"

let is_dir v =
  match v.getattr () with
  | Error _ as e -> e
  | Ok a -> Ok (match a.kind with VDIR | VGRAFT -> true | VREG | VCTL -> false)

let read_all v =
  match v.getattr () with
  | Error _ as e -> e
  | Ok a -> v.read ~off:0 ~len:a.size

let write_all v contents =
  match v.setattr { setattr_none with set_size = Some 0 } with
  | Error _ as e -> e
  | Ok () -> v.write ~off:0 contents
