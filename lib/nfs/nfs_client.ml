open Nfs_proto

type m = {
  net : Sim_net.t;
  client : Sim_net.host_id;
  server : Sim_net.host_id;
  export : string;
  attr_ttl : int;
  name_ttl : int;
  attr_cache : (fh, Vnode.attrs * int) Hashtbl.t;          (* fh -> attrs, expiry *)
  name_cache : (fh * string, fh * int) Hashtbl.t;          (* dir fh, name -> fh, expiry *)
  counters : Counters.t;
  mutable root_fh : fh;
  mutable on_unreachable : unit -> unit;
}

type Vnode.vdata += Nfs_vnode of m * fh

let now m = Clock.now (Sim_net.clock m.net)

(* Retransmissions of one idempotent request after EUNREACHABLE. *)
let max_retries = 3

(* A retransmission is only safe when replaying the request cannot
   corrupt state.  This is the classical NFS idempotency split: reads
   and full-state writes (Setattr, Write at an absolute offset) replay
   harmlessly; namespace mutations do not (a replayed Create after a
   lost reply would see EEXIST, a replayed Remove ENOENT). *)
let rec idempotent = function
  | Root _ | Getattr _ | Lookup _ | Readdir _ | Read _ | Setattr _ | Write _ -> true
  | Create _ | Mkdir _ | Remove _ | Rmdir _ | Rename _ | Link _ -> false
  | Traced (_, req) -> idempotent req

let rpc m req =
  (* When an ambient trace is active, stamp its span id into the wire
     request so the server continues the same timeline. *)
  let req =
    match Span.ambient_id () with
    | 0 -> req
    | span ->
      if is_update req then Span.emit "nfs:rpc";
      Traced (span, req)
  in
  (* Bounded retry with exponential backoff on idempotent requests.  The
     shared clock is owned by the simulation driver, so the backoff is
     not spent on the clock; each retry stands for one timed-out
     retransmission, and the waiting it models is recorded in
     "nfs.client.backoff_ticks". *)
  let rec go tries =
    Counters.incr m.counters "nfs.client.calls";
    Counters.add m.counters "nfs.client.bytes_out" (wire_size_request req);
    match Sim_net.call m.net ~src:m.client ~dst:m.server (Nfs_request req) with
    | Error Errno.EUNREACHABLE when idempotent req && tries < max_retries ->
      Counters.incr m.counters "nfs.client.retries";
      Counters.add m.counters "nfs.client.backoff_ticks" (1 lsl tries);
      go (tries + 1)
    | Error e ->
      if e = Errno.EUNREACHABLE then m.on_unreachable ();
      Error e
    | Ok (Nfs_response resp) ->
      Counters.add m.counters "nfs.client.bytes_in" (wire_size_response resp);
      Ok resp
    | Ok _ -> Error Errno.EINVAL
  in
  go 0

let ( let* ) = Result.bind

(* Drop any cached state about [fh]; on ESTALE or update. *)
let forget_attrs m fh = Hashtbl.remove m.attr_cache fh

(* Every cached fact about [fh], including name-cache entries resolving
   to it, is suspect once the server said ESTALE (its epoch moved — the
   handle is from before a restart) or stopped being reachable (we may
   reconnect to a restarted server). *)
let invalidate_fh m fh =
  forget_attrs m fh;
  let stale =
    Hashtbl.fold
      (fun key (fh', _) acc -> if fh' = fh then key :: acc else acc)
      m.name_cache []
  in
  List.iter (Hashtbl.remove m.name_cache) stale

let on_error m fh e =
  (match e with
   | Errno.ESTALE ->
     Counters.incr m.counters "nfs.client.stale";
     invalidate_fh m fh
   | Errno.EUNREACHABLE -> invalidate_fh m fh
   | _ -> ());
  Error e

let expect_ok m fh req =
  match rpc m req with
  | Error e -> on_error m fh e
  | Ok R_ok -> Ok ()
  | Ok (R_error e) -> on_error m fh e
  | Ok _ -> Error Errno.EINVAL

let cache_attrs m fh attrs =
  if m.attr_ttl > 0 then Hashtbl.replace m.attr_cache fh (attrs, now m + m.attr_ttl)

let cache_name m dir name fh =
  if m.name_ttl > 0 then Hashtbl.replace m.name_cache (dir, name) (fh, now m + m.name_ttl)

let cached_attrs m fh =
  match Hashtbl.find_opt m.attr_cache fh with
  | Some (attrs, expiry) when now m < expiry ->
    Counters.incr m.counters "nfs.client.attr_hits";
    Some attrs
  | Some _ ->
    Hashtbl.remove m.attr_cache fh;
    None
  | None -> None

let cached_name m dir name =
  match Hashtbl.find_opt m.name_cache (dir, name) with
  | Some (fh, expiry) when now m < expiry ->
    Counters.incr m.counters "nfs.client.name_hits";
    Some fh
  | Some _ ->
    Hashtbl.remove m.name_cache (dir, name);
    None
  | None -> None

let rec make m fh : Vnode.t =
  let sibling (v : Vnode.t) =
    match v.Vnode.data with
    | Nfs_vnode (m', fh') when m' == m -> Ok fh'
    | _ -> Error Errno.EXDEV
  in
  let node_result = function
    | R_node (child_fh, attrs) ->
      cache_attrs m child_fh attrs;
      Ok (child_fh, attrs)
    | R_error e -> on_error m fh e
    | _ -> Error Errno.EINVAL
  in
  {
    (Vnode.not_supported (Nfs_vnode (m, fh))) with
    getattr =
      (fun () ->
        match cached_attrs m fh with
        | Some attrs -> Ok attrs
        | None ->
          let* resp = rpc m (Getattr fh) in
          (match resp with
           | R_attrs attrs ->
             cache_attrs m fh attrs;
             Ok attrs
           | R_error e ->
             forget_attrs m fh;
             on_error m fh e
           | _ -> Error Errno.EINVAL));
    setattr =
      (fun sa ->
        forget_attrs m fh;
        expect_ok m fh (Setattr (fh, sa)));
    lookup =
      (fun name ->
        match cached_name m fh name with
        | Some child_fh -> Ok (make m child_fh)
        | None ->
          let* resp = rpc m (Lookup (fh, name)) in
          let* child_fh, _attrs = node_result resp in
          cache_name m fh name child_fh;
          Ok (make m child_fh));
    create =
      (fun name ->
        forget_attrs m fh;
        let* resp = rpc m (Create (fh, name)) in
        let* child_fh, _ = node_result resp in
        cache_name m fh name child_fh;
        Ok (make m child_fh));
    mkdir =
      (fun name ->
        forget_attrs m fh;
        let* resp = rpc m (Mkdir (fh, name)) in
        let* child_fh, _ = node_result resp in
        cache_name m fh name child_fh;
        Ok (make m child_fh));
    remove =
      (fun name ->
        forget_attrs m fh;
        Hashtbl.remove m.name_cache (fh, name);
        expect_ok m fh (Remove (fh, name)));
    rmdir =
      (fun name ->
        forget_attrs m fh;
        Hashtbl.remove m.name_cache (fh, name);
        expect_ok m fh (Rmdir (fh, name)));
    rename =
      (fun sname dst_dir dname ->
        let* dfh = sibling dst_dir in
        Hashtbl.remove m.name_cache (fh, sname);
        Hashtbl.remove m.name_cache (dfh, dname);
        forget_attrs m fh;
        forget_attrs m dfh;
        expect_ok m fh (Rename (fh, sname, dfh, dname)));
    link =
      (fun target name ->
        let* tfh = sibling target in
        forget_attrs m fh;
        forget_attrs m tfh;
        expect_ok m fh (Link (fh, tfh, name)));
    readdir =
      (fun () ->
        let* resp = rpc m (Readdir fh) in
        match resp with
        | R_dirents entries -> Ok entries
        | R_error e -> on_error m fh e
        | _ -> Error Errno.EINVAL);
    read =
      (fun ~off ~len ->
        let* resp = rpc m (Read (fh, off, len)) in
        match resp with
        | R_data data -> Ok data
        | R_error e -> on_error m fh e
        | _ -> Error Errno.EINVAL);
    write =
      (fun ~off data ->
        forget_attrs m fh;
        expect_ok m fh (Write (fh, off, data)));
    (* The stateless protocol has no open or close: both succeed locally
       and nothing reaches the server (paper §2.2). *)
    openv =
      (fun _ ->
        Counters.incr m.counters "nfs.client.openclose_dropped";
        Ok ());
    closev =
      (fun () ->
        Counters.incr m.counters "nfs.client.openclose_dropped";
        Ok ());
    fsync = (fun () -> Ok ());
    inactive = (fun () -> Ok ());
  }

let mount ?(attr_ttl = 30) ?(name_ttl = 30) ~obs net
    ~client ~server ~export =
  let m =
    {
      net;
      client;
      server;
      export;
      attr_ttl;
      name_ttl;
      attr_cache = Hashtbl.create 64;
      name_cache = Hashtbl.create 64;
      counters = Obs.counters obs;
      root_fh = "";
      on_unreachable = ignore;
    }
  in
  let* resp = rpc m (Root export) in
  match resp with
  | R_node (fh, attrs) ->
    m.root_fh <- fh;
    cache_attrs m fh attrs;
    Ok m
  | R_error e -> Error e
  | _ -> Error Errno.EINVAL

let root m = make m m.root_fh
let on_unreachable m f = m.on_unreachable <- f

let flush_caches m =
  Hashtbl.reset m.attr_cache;
  Hashtbl.reset m.name_cache

let counters m = m.counters
