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

type around = { around : 'a. string -> (unit -> 'a io) -> 'a io }

let transparent = { around = (fun _ op -> op ()) }

let forward ~hook ~data ~wrap ~unwrap lower =
  let up = Result.map wrap in
  let down sibling k = match unwrap sibling with Ok v -> k v | Error e -> Error e in
  {
    data;
    getattr = (fun () -> hook.around "getattr" lower.getattr);
    setattr = (fun sa -> hook.around "setattr" (fun () -> lower.setattr sa));
    lookup = (fun name -> up (hook.around "lookup" (fun () -> lower.lookup name)));
    create = (fun name -> up (hook.around "create" (fun () -> lower.create name)));
    mkdir = (fun name -> up (hook.around "mkdir" (fun () -> lower.mkdir name)));
    remove = (fun name -> hook.around "remove" (fun () -> lower.remove name));
    rmdir = (fun name -> hook.around "rmdir" (fun () -> lower.rmdir name));
    rename =
      (fun src dst_dir dst ->
        hook.around "rename" (fun () -> down dst_dir (fun d -> lower.rename src d dst)));
    link =
      (fun target name ->
        hook.around "link" (fun () -> down target (fun t -> lower.link t name)));
    readdir = (fun () -> hook.around "readdir" lower.readdir);
    read = (fun ~off ~len -> hook.around "read" (fun () -> lower.read ~off ~len));
    write = (fun ~off data -> hook.around "write" (fun () -> lower.write ~off data));
    openv = (fun flag -> hook.around "open" (fun () -> lower.openv flag));
    closev = (fun () -> hook.around "close" lower.closev);
    fsync = (fun () -> hook.around "fsync" lower.fsync);
    inactive = (fun () -> hook.around "inactive" lower.inactive);
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

(* Extend, write, trim.  A file that grows is extended first, so a
   failure during the write leaves the old bytes followed by zeros
   rather than the new bytes cut at the old length; an empty file has
   no old bytes to mix with. *)
let overwrite v contents =
  let resize len = v.setattr { setattr_none with set_size = Some len } in
  let len = String.length contents in
  match v.getattr () with
  | Error _ as e -> e
  | Ok a ->
    (match if a.size > 0 && a.size < len then resize len else Ok () with
     | Error _ as e -> e
     | Ok () ->
       (match v.write ~off:0 contents with
        | Error _ as e -> e
        | Ok () -> resize len))
