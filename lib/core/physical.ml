module Vv = Version_vector

let log_src = Logs.Src.create "ficus.physical" ~doc:"Ficus physical layer"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Tag every message with the host so a reporter can
   attribute interleaved multi-host logs. *)
let log_tags host = Logs.Tag.add Obs.host_tag host Logs.Tag.empty

type fidpath = Ids.file_id list

type t = {
  container : Vnode.t;
  clock : Clock.t;
  host : string;
  mutable vref : Ids.volume_ref;
  mutable rid : Ids.replica_id;
  mutable next_uniq : int;
  mutable peers : (Ids.replica_id * string) list;
  mutable notifier : (Notify.event -> unit) option;
  mutable recon_notifier : (Notify.event -> unit) option;
  conflicts : Conflict_log.t;
  counters : Counters.t;
  obs : Obs.t;
  mutable open_count : int;
  (* Directory-merge discipline.  [`Legacy] is the seed behavior: a
     directory tombstoned remotely while it holds live content here is
     moved to the replica-local UFS ORPHANS dir (preserved, but outside
     the replicated namespace).  [`Crdt] keeps the subtree's storage in
     place behind the tombstone; the CRDT repair pass ({!Crdt_merge})
     then re-parents it into the replicated lost+found directory as
     ordinary joinable Fdir operations, so every replica converges on
     the same repaired tree.  With [resolver] (which settles concurrent
     file updates in [`Crdt] passes) it is the replica's merge policy.
     Volatile: the cluster wiring re-applies it after attach/reboot. *)
  mutable dir_merge : [ `Legacy | `Crdt ];
  mutable resolver : Resolver.t;
  summaries : Summary.t; (* pending subtree-summary bumps *)
  (* Decoded directories, one slot per directory keyed by its fid: the
     DIR bytes last read or written there and their decoding.  A load
     still reads the DIR file and hits only when the bytes are equal, so
     staleness is impossible — any update rewrites the file and the new
     bytes miss — and the heap holds one version per directory.  Fdir
     values are immutable, so sharing the decoded structure is safe.  Bounded; see [fdir_slot_put]. *)
  fdir_slots : (Ids.file_id, string * Fdir.t) Hashtbl.t;
  (* Hashed contents for delta propagation, one slot per file keyed by
     its fid: the contents last hashed or installed there.  Like
     [fdir_slots], a probe hits only when the bytes are equal, so a map
     is never stale; a miss on a fid with a slot derives the new map
     from the slot's around the edit ({!Chunking.resplit}) instead of
     splitting the whole file.  Write-through from the install path, so
     serving a chunk map or digest for a just-installed file never
     re-hashes it.  Volatile, and never trusted for coherence. *)
  chunk_slots : (Ids.file_id, Chunking.Content.t) Hashtbl.t;
}

type version_info = Ctl_wire.version_info = {
  vi_kind : Aux_attrs.fkind;
  vi_vv : Vv.t;
  vi_size : int;
  vi_uid : int;
  vi_stored : bool;
  vi_span : int;
  vi_summary : Vv.t option;
}

type install_outcome = Installed | Up_to_date | Conflict of Vv.t

let ( let* ) = Result.bind

let orphans_dirname = "ORPHANS"
let meta_name = "META"
let dirfile_name = "DIR"

let rid t = t.rid
let host t = t.host
let peers t = t.peers
let counters t = t.counters
let obs t = t.obs
let clock t = t.clock
let conflicts t = t.conflicts
let open_files t = t.open_count
let set_notifier t f = t.notifier <- Some f
let set_recon_notifier t f = t.recon_notifier <- Some f
let dir_merge_mode t = t.dir_merge
let resolver t = t.resolver

let set_merge_policy t ~dir_merge ~resolver =
  t.dir_merge <- dir_merge;
  t.resolver <- resolver

(* The conflict orphanage: a reserved, deterministic directory every
   replica can create independently and still converge on — issuer 0 is
   the reserved allocator the root fid (0,1) comes from, so (0,2) can
   never collide with a replica-allocated fid, and giving the entry the
   birth (0,2) makes concurrent creations of it the *same* entry under
   the OR-set union. *)
let lost_found_fid = { Ids.issuer = 0; uniq = 2 }
let lost_found_name = "lost+found"

(* ------------------------------------------------------------------ *)
(* META                                                                *)

(* The "meta" reply's fields, then the allocator watermark and the peer
   list. *)
let encode_meta t =
  Ctl_wire.encode_meta t.vref t.rid
  ^ Printf.sprintf "next_uniq=%d\npeers=%s\n" t.next_uniq (Ctl_wire.peers_to_string t.peers)

(* One record (see {!Shadow.store_record}), so a failure at any device
   write leaves the old watermark and peers or the new ones. *)
let store_meta t = Shadow.store_record ~dir:t.container meta_name (encode_meta t)

let load_meta t =
  let* contents = Shadow.load_record ~dir:t.container meta_name in
  let* vref, rid = Ctl_wire.decode_meta contents in
  let find k = List.assoc_opt k (Aux_attrs.fields contents) in
  match
    Option.bind (find "next_uniq") int_of_string_opt,
    Option.bind (find "peers") Ctl_wire.peers_of_string
  with
  | Some next_uniq, Some peers ->
    t.vref <- vref;
    t.rid <- rid;
    t.next_uniq <- next_uniq;
    t.peers <- peers;
    Ok ()
  | _, _ -> Error Errno.EIO

let set_peers t peers =
  t.peers <- peers;
  store_meta t

let alloc_uniq t =
  let n = t.next_uniq in
  t.next_uniq <- n + 1;
  let* () = store_meta t in
  Ok n

(* A fresh fid and the birth of the entry that names it, from one
   allocation. *)
let fresh_id t =
  let* uniq = alloc_uniq t in
  Ok ({ Ids.issuer = t.rid; uniq }, { Fdir.b_rid = t.rid; b_seq = uniq })

(* ------------------------------------------------------------------ *)
(* Storage resolution along the namespace-parallel layout              *)

(* UFS directory holding the Ficus directory at [path] ([] = root). *)
let resolve_dir t path =
  let* root_ufs = t.container.Vnode.lookup (Ids.fid_to_hex Ids.root_fid) in
  let rec walk v = function
    | [] -> Ok v
    | fid :: rest ->
      let* child = v.Vnode.lookup (Ids.fid_to_hex fid) in
      walk child rest
  in
  walk root_ufs path

let split_file_path path =
  match List.rev path with
  | [] -> Error Errno.EINVAL
  | fid :: rev_parent -> Ok (List.rev rev_parent, fid)

(* The fid [path] names: its last element, or the root's. *)
let path_fid path = match List.rev path with [] -> Ids.root_fid | fid :: _ -> fid

(* Decoding a directory is the hot path's dominant allocation (every
   lookup re-reads the DIR file); the per-directory slot turns the
   common re-decode into a byte comparison.  Crude bounded eviction: the
   working set is the handful of directories under active use, so a full
   reset on overflow is simpler than LRU and just as effective. *)
let fdir_slot_cap = 512

let fdir_slot_put t fid contents fdir =
  if Hashtbl.length t.fdir_slots >= fdir_slot_cap && not (Hashtbl.mem t.fdir_slots fid) then
    Hashtbl.reset t.fdir_slots;
  Hashtbl.replace t.fdir_slots fid (contents, fdir)

(* The DIR file's bytes as read, and their decoding.  Every DIR file is
   an {!Fdir.encode} output, so the bytes are also the directory's
   encoding: callers that need it compare or serve them as they are. *)
let load_fdir_bytes t ~fid ufs_dir =
  let* dirfile = ufs_dir.Vnode.lookup dirfile_name in
  let* contents = Vnode.read_all dirfile in
  match Hashtbl.find_opt t.fdir_slots fid with
  | Some (bytes, d) when String.equal bytes contents ->
    (* Keep the string just read: while the UFS returns it again, the
       next compare is a physical-equality hit. *)
    if bytes != contents then Hashtbl.replace t.fdir_slots fid (contents, d);
    Ok (contents, d)
  | Some _ | None ->
    (match Fdir.decode contents with
     | None -> Error Errno.EIO
     | Some d ->
       fdir_slot_put t fid contents d;
       Ok (contents, d))

let load_fdir t ~fid ufs_dir =
  let* _, d = load_fdir_bytes t ~fid ufs_dir in
  Ok d

(* A slot holds a whole file's contents, far more than a decoded
   directory, so the cap is small; the working set is the files
   currently moving through propagation. *)
let chunk_slot_cap = 64

let chunk_slot_put t fid content =
  if Hashtbl.length t.chunk_slots >= chunk_slot_cap && not (Hashtbl.mem t.chunk_slots fid) then
    Hashtbl.reset t.chunk_slots;
  Hashtbl.replace t.chunk_slots fid content

(* The hashed form of [fid]'s [contents], its map computed: every
   caller goes on to read it.  A hit is the slot itself; a miss derives
   the map from the slot's when it has one, else splits the whole file.
   [phys.chunkmap.hashed_bytes] counts the bytes digested for maps. *)
let cached_content t ~fid contents =
  let hashed n = Counters.add t.counters "phys.chunkmap.hashed_bytes" n in
  match Hashtbl.find_opt t.chunk_slots fid with
  | Some content when String.equal (Chunking.Content.bytes content) contents ->
    Counters.incr t.counters "phys.chunkmap.hit";
    if not (Chunking.Content.has_map content) then hashed (String.length contents);
    content
  | slot ->
    Counters.incr t.counters "phys.chunkmap.miss";
    let map =
      match slot with
      | Some prev when Chunking.Content.has_map prev ->
        Counters.incr t.counters "phys.chunkmap.derived";
        let map, n =
          Chunking.resplit ~old:(Chunking.Content.bytes prev) (Chunking.Content.map prev) contents
        in
        hashed n;
        map
      | Some _ | None ->
        hashed (String.length contents);
        Chunking.split contents
    in
    let content = Chunking.Content.with_map contents map in
    chunk_slot_put t fid content;
    content

let chunks_of_content t ~fid contents = Chunking.Content.map (cached_content t ~fid contents)

(* Write-through: seeding the slot with the bytes just written means
   the next load after an update hits.  [contents] is [fdir]'s
   encoding, made once by the caller. *)
let store_encoded t ~fid ufs_dir contents fdir =
  let* dirfile = ufs_dir.Vnode.lookup dirfile_name in
  fdir_slot_put t fid contents fdir;
  Vnode.overwrite dirfile contents

let store_fdir t ~fid ufs_dir fdir = store_encoded t ~fid ufs_dir (Fdir.encode fdir) fdir

(* Create the UFS storage of a fresh, empty Ficus directory. *)
let make_dir_storage t parent_ufs fid aux =
  let* child = parent_ufs.Vnode.mkdir (Ids.fid_to_hex fid) in
  let* dirfile = child.Vnode.create dirfile_name in
  let* () = Vnode.overwrite dirfile (Fdir.encode (Fdir.empty t.rid)) in
  (* The DIR file's mode/uid double as the Ficus directory's attributes
     (presented by dir_getattr, updated by dir_setattr). *)
  let* () = dirfile.Vnode.setattr { Vnode.setattr_none with Vnode.set_mode = Some 0o755 } in
  let* () = Aux_attrs.store ~dir:parent_ufs fid aux in
  Ok child

(* ------------------------------------------------------------------ *)
(* Subtree summary vectors: see {!Summary}                             *)

(* Record one local update event touching the directory at [dirpath]
   and the version info of its [changed] children, numbered from the
   uniquifier counter. *)
let note_event t dirpath ~changed =
  let seq = t.next_uniq in
  t.next_uniq <- seq + 1;
  Summary.note t.summaries dirpath ~changed ~seq

(* Where the aux file of the directory at [path] lives: the volume
   container for the root, the parent's UFS directory otherwise. *)
let dir_aux_location t path =
  match path with
  | [] -> Ok (t.container, Ids.root_fid)
  | _ ->
    let* parent, fid = split_file_path path in
    let* parent_ufs = resolve_dir t parent in
    Ok (parent_ufs, fid)

let summary_io t =
  {
    Summary.rid = t.rid;
    counters = t.counters;
    persist_watermark = (fun () -> store_meta t);
    aux_dir = dir_aux_location t;
  }

let flush_summaries t = Summary.flush t.summaries (summary_io t)
let join_summary t path served = Summary.join t.summaries (summary_io t) path served
let recon_floor t ~peer own = Summary.floor t.summaries ~peer own
let recon_passed t ~peer ~walked =
  Summary.passed t.summaries ~peer ~tick:(Clock.now t.clock) ~walked
let caught_up t ~peer ~since = Summary.caught_up t.summaries ~peer ~since

(* Recursively delete a UFS subtree under [name] in [dir]. *)
let rec rm_tree dir name =
  let* child = dir.Vnode.lookup name in
  let* attrs = child.Vnode.getattr () in
  match attrs.Vnode.kind with
  | Vnode.VREG | Vnode.VCTL -> dir.Vnode.remove name
  | Vnode.VDIR | Vnode.VGRAFT ->
    let* entries = child.Vnode.readdir () in
    let rec clear = function
      | [] -> Ok ()
      | e :: rest ->
        let* () = rm_tree child e.Vnode.entry_name in
        clear rest
    in
    let* () = clear entries in
    dir.Vnode.rmdir name

let ignore_enoent = function
  | Ok () | Error Errno.ENOENT -> Ok ()
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Notifications                                                       *)

let emit ?(vv = Vv.empty) t ~fidpath ~fid ~kind =
  match t.notifier with
  | None -> ()
  | Some f ->
    let span = Span.ambient_id () in
    if span <> Span.none then begin
      Span.emit "notify:send";
      Metrics.incr t.obs.Obs.metrics "notify.sent"
    end;
    f
      {
        Notify.vref = t.vref;
        fidpath;
        fid;
        kind;
        origin_rid = t.rid;
        origin_host = t.host;
        span;
        vv;
      }

let dir_event t path = emit t ~fidpath:path ~fid:(path_fid path) ~kind:Aux_attrs.Fdir

(* [vv] is the file's post-update version vector; receivers whose local
   history already dominates it drop the notification without an RPC. *)
let file_event ?vv t path fid = emit ?vv t ~fidpath:path ~fid ~kind:Aux_attrs.Freg

let reconciled t fidpath ~kind ~vv =
  Option.iter
    (fun f ->
      f
        {
          Notify.vref = t.vref;
          fidpath;
          fid = path_fid fidpath;
          kind;
          origin_rid = t.rid;
          origin_host = t.host;
          span = Span.none;
          vv;
        })
    t.recon_notifier

(* ------------------------------------------------------------------ *)
(* Version info                                                        *)

(* The UFS directory of the Ficus directory at [path], whose storage
   [holder] holds, its DIR file's bytes and their decoding. *)
let dir_at t holder path =
  let fid = path_fid path in
  let* ufs_dir = holder.Vnode.lookup (Ids.fid_to_hex fid) in
  let* bytes, fdir = load_fdir_bytes t ~fid ufs_dir in
  Ok (ufs_dir, bytes, fdir)

(* Version info of the [kind] entry at [path], whose storage and aux file
   [holder] holds: the parent's UFS directory, or the volume container
   for the root.  Callers pass the directory they already hold, so no
   walk from the root is repeated.  A file entry may be known before any
   storage is materialized, and a fresh image's root has no aux. *)
let entry_info t holder path kind =
  let fid = path_fid path in
  let* aux =
    match Aux_attrs.load ~dir:holder fid with
    | Error Errno.ENOENT when kind = Aux_attrs.Freg || path = [] -> Ok (Aux_attrs.make kind)
    | r -> r
  in
  let info ~vv ~size ~stored ~span ~summary =
    {
      vi_kind = aux.Aux_attrs.kind;
      vi_vv = vv;
      vi_size = size;
      vi_uid = aux.Aux_attrs.uid;
      vi_stored = stored;
      vi_span = span;
      vi_summary = summary;
    }
  in
  match kind with
  | Aux_attrs.Freg ->
    let* size, stored =
      match holder.Vnode.lookup (Ids.fid_to_hex fid) with
      | Ok data ->
        let* attrs = data.Vnode.getattr () in
        Ok (attrs.Vnode.size, true)
      | Error Errno.ENOENT -> Ok (0, false)
      | Error _ as e -> e
    in
    Ok (info ~vv:aux.Aux_attrs.vv ~size ~stored ~span:aux.Aux_attrs.span ~summary:None)
  | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
    let* _, _, fdir = dir_at t holder path in
    Ok
      (info ~vv:(Fdir.vv fdir) ~size:(Fdir.live_count fdir) ~stored:true ~span:0
         ~summary:(Some (Summary.own t.summaries ~rid:t.rid path aux)))

let get_version t path =
  match split_file_path path with
  | Error _ -> entry_info t t.container [] Aux_attrs.Fdir
  | Ok (parent, fid) ->
    let* parent_ufs = resolve_dir t parent in
    let* fdir = load_fdir t ~fid:(path_fid parent) parent_ufs in
    (match Fdir.find_by_fid fdir fid with
     | None -> Error Errno.ENOENT
     | Some e -> entry_info t parent_ufs path e.Fdir.kind)

(* The contents of the file [fid] stored in [holder], described by [vi]. *)
let stored_contents holder fid vi =
  if not vi.vi_stored then Error Errno.EAGAIN
  else
    let* data = holder.Vnode.lookup (Ids.fid_to_hex fid) in
    Vnode.read_all data

let fetch_file t path =
  let* parent, fid = split_file_path path in
  let* parent_ufs = resolve_dir t parent in
  let* vi = entry_info t parent_ufs path Aux_attrs.Freg in
  let* data = stored_contents parent_ufs fid vi in
  Ok (vi, data)

let fetch_dir t path =
  let* ufs_dir = resolve_dir t path in
  load_fdir t ~fid:(path_fid path) ufs_dir

(* An entry of [fdir] by "@hex" handle or by name. *)
let find_entry fdir who =
  if String.length who > 0 && who.[0] = '@' then
    match Ids.fid_of_at_name who with
    | None -> Error Errno.EINVAL
    | Some fid -> Option.to_result ~none:Errno.ENOENT (Fdir.find_by_fid fdir fid)
  else Option.to_result ~none:Errno.ENOENT (Fdir.find_live fdir who)

(* The one directory-update step: load the directory at [path], let [f]
   rewrite it (and the storage of its children), store it, then record
   the local event — against the children [f] names as changed — and
   notify the peers. *)
let update_dir t path f =
  let fid = path_fid path in
  let* ufs_dir = resolve_dir t path in
  let* fdir = load_fdir t ~fid ufs_dir in
  let* fdir, changed, result = f ufs_dir fdir in
  let* () = store_fdir t ~fid ufs_dir fdir in
  note_event t path ~changed;
  dir_event t path;
  Ok result

let track_open t counter delta =
  Counters.incr t.counters counter;
  t.open_count <- t.open_count + delta

(* ------------------------------------------------------------------ *)
(* The vnode layer                                                     *)

type Vnode.vdata +=
  | Phys_dir of t * fidpath * Aux_attrs.fkind
  | Phys_reg of t * fidpath
  | Phys_ctl of string

let ctl_vnode response =
  {
    (Vnode.not_supported (Phys_ctl response)) with
    getattr =
      (fun () ->
        Ok
          {
            Vnode.kind = Vnode.VCTL;
            size = String.length response;
            nlink = 1;
            mtime = 0;
            mode = 0o400;
            uid = 0;
            gen = 0;
          });
    read =
      (fun ~off ~len ->
        if off < 0 || len < 0 then Error Errno.EINVAL
        else
          let n = String.length response in
          let off = min off n in
          Ok (String.sub response off (min len (n - off))));
    openv = (fun _ -> Ok ());
    closev = (fun () -> Ok ());
    inactive = (fun () -> Ok ());
  }

let vtype_of_fkind = Aux_attrs.kind_to_vtype

(* Drop a file's UFS storage from this directory unless another live
   entry (a second name in the same directory) still references the fid. *)
let drop_file_storage fdir ufs_dir fid =
  if Fdir.find_by_fid fdir fid <> None then Ok ()
  else
    let* () = ignore_enoent (ufs_dir.Vnode.remove (Ids.fid_to_hex fid)) in
    ignore_enoent (ufs_dir.Vnode.remove (Ids.aux_name fid))

(* Move the UFS storage of [e] from [src_ufs] to [dst_ufs] (no-op when
   the destination already stores the fid, e.g. an extra hard link). *)
let move_storage e src_ufs dst_ufs =
  let hex = Ids.fid_to_hex e.Fdir.fid in
  let aux = Ids.aux_name e.Fdir.fid in
  match dst_ufs.Vnode.lookup hex with
  | Ok _ ->
    let* () = ignore_enoent (src_ufs.Vnode.remove hex) in
    ignore_enoent (src_ufs.Vnode.remove aux)
  | Error Errno.ENOENT ->
    (match src_ufs.Vnode.lookup hex with
     | Ok _ ->
       let* () = src_ufs.Vnode.rename hex dst_ufs hex in
       src_ufs.Vnode.rename aux dst_ufs aux
     | Error Errno.ENOENT -> Ok () (* not stored locally: nothing to move *)
     | Error _ as err -> err)
  | Error _ as err -> err

let bump_file_version t parent_ufs fid =
  let* aux = Aux_attrs.load ~dir:parent_ufs fid in
  (* Persist the ambient trace span alongside the version bump: a
     reconciling replica that later fetches this version learns which
     update timeline it belongs to. *)
  let span =
    match Span.ambient_id () with 0 -> aux.Aux_attrs.span | s -> s
  in
  (* The recorded content digest is only ever valid for installed
     contents; a local write invalidates it (recomputed lazily when a
     chunk map is next served). *)
  let aux =
    { aux with Aux_attrs.vv = Vv.bump aux.Aux_attrs.vv t.rid; span; digest = None }
  in
  let* () = Aux_attrs.store ~dir:parent_ufs fid aux in
  Ok aux.Aux_attrs.vv

(* ---------------- control requests over lookup ---------------- *)

(* Resolve a control-operation target: "." is the directory the lookup
   arrived at; otherwise a child by "@hex" handle or by name.  Returns
   the target's path, the UFS directory holding its storage, and its
   version info. *)
let ctl_target t path who =
  if who = "." then
    let* holder, _ = dir_aux_location t path in
    let* vi = entry_info t holder path Aux_attrs.Fdir in
    Ok (path, holder, vi)
  else
    let* ufs_dir = resolve_dir t path in
    let* fdir = load_fdir t ~fid:(path_fid path) ufs_dir in
    let* e = find_entry fdir who in
    let target = path @ [ e.Fdir.fid ] in
    let* vi = entry_info t ufs_dir target e.Fdir.kind in
    Ok (target, ufs_dir, vi)

(* A control-operation target that must be a regular file: its fid, the
   directory holding it, its version info and its stored contents. *)
let ctl_file t path who =
  let* target, holder, vi = ctl_target t path who in
  if vi.vi_kind <> Aux_attrs.Freg then Error Errno.EISDIR
  else
    let fid = path_fid target in
    let* data = stored_contents holder fid vi in
    Ok (fid, holder, vi, data)

(* Whole-content digest for the chunk-map header: trust the aux record
   when present (the install path writes it, every local write clears
   it — a [Some] is never stale), else take the cached content's, which
   is computed once per stored content however many peers ask. *)
let stored_digest holder fid content =
  match Aux_attrs.load ~dir:holder fid with
  | Ok { Aux_attrs.digest = Some d; _ } -> d
  | Ok _ | Error _ -> Chunking.Content.digest content

(* The `.#ficus#stats` body: the whole observability snapshot in the
   same line-oriented style as the other ctl responses — metrics first,
   then every span timeline as [span <id> <tick> <host> <label>]. *)
let stats_body t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Metrics.render (Metrics.snapshot t.obs.Obs.metrics));
  let spans = t.obs.Obs.spans in
  List.iter
    (fun id ->
      List.iter
        (fun e ->
          Buffer.add_string buf
            (Printf.sprintf "span %d %d %s %s\n" id e.Span.e_tick e.Span.e_host
               e.Span.e_label))
        (Span.timeline spans id))
    (Span.ids spans);
  Buffer.contents buf

(* Every reply is encoded by {!Ctl_wire}. *)
let ctl_lookup t path name =
  Counters.incr t.counters "phys.ctl";
  match Ctl_name.decode name with
  | None -> Error Errno.EINVAL
  | Some (op, args) ->
    (match op, args with
     | "open", _ ->
       track_open t "phys.open.ctl" 1;
       Ok (ctl_vnode "ok\n")
     | "close", _ ->
       track_open t "phys.close.ctl" (-1);
       Ok (ctl_vnode "ok\n")
     | "getvv", who :: _ ->
       let* _, _, vi = ctl_target t path who in
       Ok (ctl_vnode (Ctl_wire.encode_version_info vi))
     | "readfile", who :: _ ->
       let* _, _, vi, data = ctl_file t path who in
       Ok (ctl_vnode (Ctl_wire.encode_file vi data))
     | "getdir", who :: _ ->
       let* target, holder, vi = ctl_target t path who in
       if vi.vi_kind = Aux_attrs.Freg then Error Errno.ENOTDIR
       else
         let* _, bytes, _ = dir_at t holder target in
         Ok (ctl_vnode bytes)
     | "getdirvvs", who :: rest ->
       (* Batched: one directory's summary + fdir + version info for its
          children in a single response.  Flush pending summary bumps
          first so every claim we serve is durable.  A request naming
          the puller's floor (before the serial) is answered only for
          the children the change index stamped above it. *)
       Counters.incr t.counters "phys.ctl.getdirvvs";
       let* (_ : int) = flush_summaries t in
       let* target, holder, vi = ctl_target t path who in
       if vi.vi_kind = Aux_attrs.Freg then Error Errno.ENOTDIR
       else
         let* ufs_dir, bytes, fdir = dir_at t holder target in
         let floor = match rest with f :: _ :: _ -> int_of_string_opt f | _ -> None in
         let changed = Summary.stamped t.summaries ~dir:(path_fid target) ~floor in
         let wanted = Option.value changed ~default:(fun _ -> true) in
         (* A child whose info fails is left out, and a filtered reply
            lists it; the reconciler takes the per-child path for it. *)
         let failed = ref [] in
         let child e =
           if not (wanted e.Fdir.fid) then None
           else
             match entry_info t ufs_dir (target @ [ e.Fdir.fid ]) e.Fdir.kind with
             | Ok vi -> Some (e.Fdir.fid, vi)
             | Error _ ->
               failed := e.Fdir.fid :: !failed;
               None
         in
         let children = List.filter_map child (Fdir.live_fids fdir) in
         Counters.add t.counters "phys.ctl.getdirvvs.children" (List.length children);
         let filtered = Option.map (fun _ -> List.rev !failed) changed in
         Ok
           (ctl_vnode
              (Ctl_wire.encode_dir_versions ~summary:vi.vi_summary ~filtered ~fdir:bytes
                 children))
     | "getchunkmap", who :: _ ->
       (* Delta negotiation, step 1: the file's version info, whole-file
          digest and content-defined chunk map — a header-sized answer
          from which the puller works out which bodies it is missing. *)
       Counters.incr t.counters "phys.ctl.getchunkmap";
       let* fid, holder, vi, data = ctl_file t path who in
       let content = cached_content t ~fid data in
       let digest = stored_digest holder fid content in
       Ok (ctl_vnode (Ctl_wire.encode_chunk_map vi ~digest (Chunking.Content.map content)))
     | "readchunks", who :: wanted :: _ ->
       (* Delta negotiation, step 2: the bodies of the comma-separated
          digests.  A digest we no longer hold means the file changed
          between the map fetch and this call: EAGAIN tells the puller
          to fall back to a whole-file fetch rather than mix
          generations. *)
       Counters.incr t.counters "phys.ctl.readchunks";
       let* fid, _, _, data = ctl_file t path who in
       let by_digest = Hashtbl.create 16 in
       List.iter
         (fun c ->
           if not (Hashtbl.mem by_digest c.Chunking.digest) then
             Hashtbl.add by_digest c.Chunking.digest c)
         (chunks_of_content t ~fid data);
       let rec bodies acc = function
         | [] -> Ok (List.rev acc)
         | d :: rest ->
           (match Hashtbl.find_opt by_digest d with
            | None -> Error Errno.EAGAIN
            | Some c -> bodies ((d, Chunking.slice data c) :: acc) rest)
       in
       let* bodies = bodies [] (String.split_on_char ',' wanted) in
       Ok (ctl_vnode (Ctl_wire.encode_chunks bodies))
     | "stats", _ ->
       Counters.incr t.counters "phys.ctl.stats";
       Ok (ctl_vnode (stats_body t))
     | "peers", _ -> Ok (ctl_vnode (Ctl_wire.encode_peers t.peers))
     | "meta", _ -> Ok (ctl_vnode (Ctl_wire.encode_meta t.vref t.rid))
     | "resolve", who :: _ ->
       let* ufs_dir = resolve_dir t path in
       let* fdir = load_fdir t ~fid:(path_fid path) ufs_dir in
       (match Fdir.find_live fdir who with
        | None -> Error Errno.ENOENT
        | Some e -> Ok (ctl_vnode (Ctl_wire.encode_resolve e.Fdir.fid e.Fdir.kind)))
     | _, _ -> Error Errno.EINVAL)

(* ---------------- vnodes ---------------- *)

let rec entry_vnode t path = function
  | Aux_attrs.Freg -> reg_vnode t path
  | (Aux_attrs.Fdir | Aux_attrs.Fgraft) as kind -> dir_vnode t path kind

and dir_vnode t path kind : Vnode.t =
  {
    (Vnode.not_supported (Phys_dir (t, path, kind))) with
    getattr = (fun () -> dir_getattr t path kind);
    lookup = (fun name -> dir_lookup t path name);
    create = (fun name -> dir_create t path name);
    mkdir = (fun name -> dir_mkdir t path name);
    remove = (fun name -> dir_remove t path name);
    rmdir = (fun name -> dir_rmdir t path name);
    rename = (fun sname dst dname -> dir_rename t path sname dst dname);
    link = (fun target name -> dir_link t path target name);
    readdir = (fun () -> dir_readdir t path);
    openv =
      (fun _ ->
        track_open t "phys.open.vnode" 1;
        Ok ());
    closev =
      (fun () ->
        track_open t "phys.close.vnode" (-1);
        Ok ());
    fsync = (fun () -> Ok ());
    inactive = (fun () -> Ok ());
    setattr = (fun sa -> dir_setattr t path sa);
  }

and reg_vnode t path : Vnode.t =
  {
    (Vnode.not_supported (Phys_reg (t, path))) with
    getattr = (fun () -> reg_getattr t path);
    setattr = (fun sa -> reg_setattr t path sa);
    read = (fun ~off ~len -> reg_read t path ~off ~len);
    write = (fun ~off data -> reg_write t path ~off data);
    openv =
      (fun _ ->
        track_open t "phys.open.vnode" 1;
        Ok ());
    closev =
      (fun () ->
        track_open t "phys.close.vnode" (-1);
        Ok ());
    fsync = (fun () -> Ok ());
    inactive = (fun () -> Ok ());
  }

(* ---------------- directories ---------------- *)

(* chmod/chown of a Ficus directory: applied to its DIR file, whose
   attributes dir_getattr presents.  Resizing a directory is senseless. *)
and dir_setattr t path sa =
  if sa.Vnode.set_size <> None then Error Errno.EISDIR
  else
    let* ufs_dir = resolve_dir t path in
    let* dirfile = ufs_dir.Vnode.lookup dirfile_name in
    dirfile.Vnode.setattr sa

and dir_getattr t path kind =
  let* ufs_dir = resolve_dir t path in
  let* dirfile = ufs_dir.Vnode.lookup dirfile_name in
  let* attrs = dirfile.Vnode.getattr () in
  Ok { attrs with Vnode.kind = vtype_of_fkind kind; nlink = 1 }

and dir_lookup t path name =
  Counters.incr t.counters "phys.lookup";
  if Ctl_name.is_ctl name then ctl_lookup t path name
  else
    let* ufs_dir = resolve_dir t path in
    let* fdir = load_fdir t ~fid:(path_fid path) ufs_dir in
    let* e = find_entry fdir name in
    Ok (entry_vnode t (path @ [ e.Fdir.fid ]) e.Fdir.kind)

and dir_create t path name =
  let* fid =
    update_dir t path (fun ufs_dir fdir ->
        let* fid, birth = fresh_id t in
        let* fdir = Fdir.add fdir ~rid:t.rid ~name ~fid ~kind:Aux_attrs.Freg ~birth in
        let* _data = ufs_dir.Vnode.create (Ids.fid_to_hex fid) in
        let aux =
          { (Aux_attrs.make Aux_attrs.Freg) with Aux_attrs.vv = Vv.singleton t.rid 1 }
        in
        let* () = Aux_attrs.store ~dir:ufs_dir fid aux in
        Ok (fdir, [ fid ], fid))
  in
  Ok (reg_vnode t (path @ [ fid ]))

and dir_mkdir t path name =
  let* fid =
    update_dir t path (fun ufs_dir fdir ->
        let* fid, birth = fresh_id t in
        let* fdir = Fdir.add fdir ~rid:t.rid ~name ~fid ~kind:Aux_attrs.Fdir ~birth in
        let* _child = make_dir_storage t ufs_dir fid (Aux_attrs.make Aux_attrs.Fdir) in
        Ok (fdir, [ fid ], fid))
  in
  Ok (dir_vnode t (path @ [ fid ]) Aux_attrs.Fdir)

and dir_remove t path name =
  update_dir t path (fun ufs_dir fdir ->
      let* e = Option.to_result ~none:Errno.ENOENT (Fdir.find_live fdir name) in
      if e.Fdir.kind <> Aux_attrs.Freg then Error Errno.EISDIR
      else
        let* fdir = Fdir.kill fdir ~rid:t.rid e.Fdir.birth in
        let* () = drop_file_storage fdir ufs_dir e.Fdir.fid in
        Ok (fdir, [], ()))

and dir_rmdir t path name =
  update_dir t path (fun ufs_dir fdir ->
      let* e = Option.to_result ~none:Errno.ENOENT (Fdir.find_live fdir name) in
      if e.Fdir.kind = Aux_attrs.Freg then Error Errno.ENOTDIR
      else
        let* child_ufs = ufs_dir.Vnode.lookup (Ids.fid_to_hex e.Fdir.fid) in
        let* child_fdir = load_fdir t ~fid:e.Fdir.fid child_ufs in
        if Fdir.live_count child_fdir > 0 then Error Errno.ENOTEMPTY
        else
          let* fdir = Fdir.kill fdir ~rid:t.rid e.Fdir.birth in
          let* () = rm_tree ufs_dir (Ids.fid_to_hex e.Fdir.fid) in
          let* () = ignore_enoent (ufs_dir.Vnode.remove (Ids.aux_name e.Fdir.fid)) in
          Ok (fdir, [], ()))

and dir_rename t path sname dst dname =
  let* dst_path =
    match dst.Vnode.data with
    | Phys_dir (t', q, _) when t' == t -> Ok q
    | _ -> Error Errno.EXDEV
  in
  let same_dir = List.length path = List.length dst_path
                 && List.for_all2 Ids.fid_equal path dst_path in
  (* The source entry, the destination directory with [dname] cleared —
     a plain file there is replaced, a directory refused — and the birth
     of the entry the rename adds. *)
  let prepare src_fdir dst_ufs dst_fdir =
    let* entry = Option.to_result ~none:Errno.ENOENT (Fdir.find_live src_fdir sname) in
    let* dst_fdir =
      match Fdir.find_live dst_fdir dname with
      | None -> Ok dst_fdir
      | Some de when same_dir && Fdir.birth_compare de.Fdir.birth entry.Fdir.birth = 0 ->
        Ok dst_fdir (* renaming onto itself *)
      | Some de ->
        if de.Fdir.kind <> Aux_attrs.Freg then Error Errno.EEXIST
        else
          let* d = Fdir.kill dst_fdir ~rid:t.rid de.Fdir.birth in
          let* () = drop_file_storage d dst_ufs de.Fdir.fid in
          Ok d
    in
    let* _, birth = fresh_id t in
    Ok (entry, dst_fdir, birth)
  in
  let add_entry fdir entry birth =
    Fdir.add fdir ~rid:t.rid ~name:dname ~fid:entry.Fdir.fid ~kind:entry.Fdir.kind ~birth
  in
  if same_dir then
    update_dir t path (fun ufs_dir fdir ->
        let* entry, fdir, birth = prepare fdir ufs_dir fdir in
        let* fdir = Fdir.kill fdir ~rid:t.rid entry.Fdir.birth in
        let* fdir = add_entry fdir entry birth in
        Ok (fdir, [], ()))
  else begin
    let* src_ufs = resolve_dir t path in
    let* dst_ufs = resolve_dir t dst_path in
    let* src_fdir = load_fdir t ~fid:(path_fid path) src_ufs in
    let* dst_fdir = load_fdir t ~fid:(path_fid dst_path) dst_ufs in
    let* entry, dst_fdir, birth = prepare src_fdir dst_ufs dst_fdir in
    (* A directory cannot move under itself: its storage would leave
       the tree. *)
    let* () =
      if List.exists (Ids.fid_equal entry.Fdir.fid) dst_path then Error Errno.EINVAL else Ok ()
    in
    let* () = Summary.before_move t.summaries (summary_io t) entry.Fdir.kind in
    let* src_fdir = Fdir.kill src_fdir ~rid:t.rid entry.Fdir.birth in
    let* dst_fdir = add_entry dst_fdir entry birth in
    let* () = move_storage entry src_ufs dst_ufs in
    let* () = store_fdir t ~fid:(path_fid path) src_ufs src_fdir in
    let* () = store_fdir t ~fid:(path_fid dst_path) dst_ufs dst_fdir in
    note_event t path ~changed:[ entry.Fdir.fid ];
    note_event t dst_path ~changed:[ entry.Fdir.fid ];
    dir_event t path;
    dir_event t dst_path;
    Ok ()
  end

and dir_link t path target name =
  let* target_path =
    match target.Vnode.data with
    | Phys_reg (t', p) when t' == t -> Ok p
    | _ -> Error Errno.EXDEV
  in
  let* tparent, tfid = split_file_path target_path in
  update_dir t path (fun ufs_dir fdir ->
      let* _, birth = fresh_id t in
      let* fdir = Fdir.add fdir ~rid:t.rid ~name ~fid:tfid ~kind:Aux_attrs.Freg ~birth in
      let hex = Ids.fid_to_hex tfid in
      let* () =
        match ufs_dir.Vnode.lookup hex with
        | Ok _ -> Ok () (* this directory already stores the file *)
        | Error Errno.ENOENT ->
          let* tparent_ufs = resolve_dir t tparent in
          (match tparent_ufs.Vnode.lookup hex with
           | Ok data ->
             let* () = ufs_dir.Vnode.link data hex in
             let* aux = tparent_ufs.Vnode.lookup (Ids.aux_name tfid) in
             ufs_dir.Vnode.link aux (Ids.aux_name tfid)
           | Error Errno.ENOENT -> Ok () (* sparse replica: entry only *)
           | Error _ as e -> e)
        | Error _ as e -> e
      in
      Ok (fdir, [ tfid ], ()))

and dir_readdir t path =
  let* fdir = fetch_dir t path in
  Ok
    (List.map
       (fun (name, e) ->
         { Vnode.entry_name = name; entry_kind = vtype_of_fkind e.Fdir.kind })
       (Fdir.live fdir))

(* ---------------- regular files ---------------- *)

and data_vnode t path =
  let* parent, fid = split_file_path path in
  let* parent_ufs = resolve_dir t parent in
  match parent_ufs.Vnode.lookup (Ids.fid_to_hex fid) with
  | Ok v -> Ok (v, parent, parent_ufs, fid)
  | Error Errno.ENOENT -> Error Errno.EAGAIN (* entry exists, contents not stored here *)
  | Error _ as e -> e

(* The tail of every local file update: bump the version, record the
   event against the containing directory and notify the peers. *)
and file_updated t path parent parent_ufs fid =
  let* vv = bump_file_version t parent_ufs fid in
  Counters.incr t.counters "phys.update";
  Span.emit "phys:update";
  note_event t parent ~changed:[ fid ];
  file_event ~vv t path fid;
  Ok ()

and reg_getattr t path =
  let* data, _, parent_ufs, fid = data_vnode t path in
  let* attrs = data.Vnode.getattr () in
  let* aux = Aux_attrs.load ~dir:parent_ufs fid in
  Ok { attrs with Vnode.kind = Vnode.VREG; uid = aux.Aux_attrs.uid }

and reg_setattr t path sa =
  let* data, parent, parent_ufs, fid = data_vnode t path in
  let* () =
    match sa.Vnode.set_uid with
    | None -> Ok ()
    | Some uid ->
      let* aux = Aux_attrs.load ~dir:parent_ufs fid in
      Aux_attrs.store ~dir:parent_ufs fid { aux with Aux_attrs.uid = uid }
  in
  let* () = data.Vnode.setattr sa in
  if sa.Vnode.set_size <> None then file_updated t path parent parent_ufs fid else Ok ()

and reg_read t path ~off ~len =
  let* data, _, _, _ = data_vnode t path in
  data.Vnode.read ~off ~len

and reg_write t path ~off payload =
  let* data, parent, parent_ufs, fid = data_vnode t path in
  let* () = data.Vnode.write ~off payload in
  file_updated t path parent parent_ufs fid

let root t = dir_vnode t [] Aux_attrs.Fdir

(* ------------------------------------------------------------------ *)
(* Installation (pull side of propagation and reconciliation)          *)

(* The one install commit: shadow-swap [data] in as [fid]'s contents,
   store [aux] (stamped with the contents' digest: the one a delta pull
   verified, else computed here), write the hashed contents through —
   the next chunk-map request for them (a peer pulling them onward) is
   a slot probe, not a re-hash — and record the local state change, so
   peers that summarized us before must walk us again.  Contents whose
   map is not known yet (a whole-file pull) leave a mapped slot in
   place: the next probe derives their map from it. *)
let commit_file t ~parent ~parent_ufs fid ~aux ~data =
  let* () = Shadow.install ~dir:parent_ufs fid ~data:(Chunking.Content.bytes data) in
  let aux = { aux with Aux_attrs.digest = Some (Chunking.Content.digest data) } in
  let* () = Aux_attrs.store ~dir:parent_ufs fid aux in
  (match Hashtbl.find_opt t.chunk_slots fid with
   | Some prev when Chunking.Content.has_map prev && not (Chunking.Content.has_map data) -> ()
   | Some _ | None -> chunk_slot_put t fid data);
  note_event t parent ~changed:[ fid ];
  Ok ()

let install_file ~span ~via t path ~vv ~uid ~data ~origin_rid =
  let* parent, fid = split_file_path path in
  let* parent_ufs = resolve_dir t parent in
  let* local =
    match Aux_attrs.load ~dir:parent_ufs fid with
    | Ok aux -> Ok (Some aux)
    | Error Errno.ENOENT -> Ok None
    | Error _ as e -> e
  in
  let adopt () =
    let merged_vv =
      match local with
      | None -> vv
      | Some aux -> Vv.merge aux.Aux_attrs.vv vv
    in
    let aux = { (Aux_attrs.make Aux_attrs.Freg) with Aux_attrs.vv = merged_vv; uid; span } in
    let* () = commit_file t ~parent ~parent_ufs fid ~aux ~data in
    let now = Clock.now t.clock in
    Span.event t.obs.Obs.spans span ~host:t.host ~tick:now "shadow:swap";
    Span.event t.obs.Obs.spans span ~host:t.host ~tick:now ("install:" ^ via);
    (* The convergence measurement: ticks from the originating write
       (the span's first event) to this replica holding the version. *)
    (match Span.start_tick t.obs.Obs.spans span with
    | Some t0 ->
      Metrics.observe t.obs.Obs.metrics "prop.lag" (now - t0);
      Metrics.observe t.obs.Obs.metrics ("prop.lag." ^ t.host) (now - t0)
    | None -> ());
    (* A dominating version supersedes any conflict reported here: the
       owner (or another replica) has already resolved it. *)
    let superseded = Conflict_log.resolve_matching t.conflicts ~fidpath:path in
    if superseded > 0 then
      Log.info (fun m ->
          m ~tags:(log_tags t.host) "r%d: conflict on %s superseded by a dominating remote version" t.rid
            (Ids.fidpath_to_string path));
    Counters.incr t.counters "phys.install";
    Counters.add t.counters "phys.install.bytes" (String.length (Chunking.Content.bytes data));
    Ok Installed
  in
  match local with
  | None -> adopt ()
  | Some aux ->
    let stored =
      match parent_ufs.Vnode.lookup (Ids.fid_to_hex fid) with Ok _ -> true | Error _ -> false
    in
    if not stored then adopt ()
    else
      (match Vv.compare_vv vv aux.Aux_attrs.vv with
       | Vv.Dominates -> adopt ()
       | Vv.Equal | Vv.Dominated -> Ok Up_to_date
       | Vv.Concurrent ->
         (* Report once: periodic reconciliation re-detects the same
            conflict every pass until the owner resolves it.  The aux
            flag alone is not enough to suppress the report — it
            survives a crash while the in-memory log does not, and a
            flag with no pending entry would leave the conflict
            invisible to the owner forever. *)
         if
           (not aux.Aux_attrs.conflict)
           || not (Conflict_log.has_pending t.conflicts ~fidpath:path)
         then begin
           (match
              Aux_attrs.store ~dir:parent_ufs fid { aux with Aux_attrs.conflict = true }
            with
            | Ok () | Error _ -> ());
           let (_ : Conflict_log.entry) =
             Conflict_log.report t.conflicts ~vref:t.vref ~fidpath:path ~fid
               ~owner_uid:aux.Aux_attrs.uid ~detected_at:(Clock.now t.clock)
               (Conflict_log.File_update
                  {
                    local_vv = aux.Aux_attrs.vv;
                    remote_vv = vv;
                    remote_rid = origin_rid;
                    remote_data = Chunking.Content.bytes data;
                  })
           in
           Log.warn (fun m ->
               m ~tags:(log_tags t.host) "r%d: concurrent update conflict on %s (local %a, remote r%d %a)" t.rid
                 (Ids.fidpath_to_string path) Vv.pp aux.Aux_attrs.vv origin_rid Vv.pp vv);
           Counters.incr t.counters "phys.conflict.file"
         end;
         Ok (Conflict aux.Aux_attrs.vv))

let force_install t path ~vv ~uid ~data =
  let* parent, fid = split_file_path path in
  let* parent_ufs = resolve_dir t parent in
  let aux = { (Aux_attrs.make Aux_attrs.Freg) with Aux_attrs.vv = vv; uid } in
  let* () = commit_file t ~parent ~parent_ufs fid ~aux ~data:(Chunking.Content.make data) in
  file_event ~vv t path fid;
  Ok ()

(* Apply one Fdir merge action to local storage.  [merged] is the
   post-merge directory, consulted so shared storage survives while any
   other live name still references the fid. *)
let apply_action t path ufs_dir merged action =
  match action with
  | Fdir.Expire _ -> Ok ()
  | Fdir.Materialize e ->
    (match e.Fdir.kind with
     | Aux_attrs.Freg ->
       (* Entry adopted; contents arrive by pull.  Store a zero-history
          aux so version queries answer "not stored". *)
       (match Aux_attrs.load ~dir:ufs_dir e.Fdir.fid with
        | Ok _ -> Ok ()
        | Error Errno.ENOENT ->
          Aux_attrs.store ~dir:ufs_dir e.Fdir.fid (Aux_attrs.make Aux_attrs.Freg)
        | Error _ as err -> err)
     | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
       (match ufs_dir.Vnode.lookup (Ids.fid_to_hex e.Fdir.fid) with
        | Ok _ -> Ok ()
        | Error Errno.ENOENT ->
          let* _child = make_dir_storage t ufs_dir e.Fdir.fid (Aux_attrs.make e.Fdir.kind) in
          Ok ()
        | Error _ as err -> err))
  | Fdir.Unmaterialize e ->
    (match e.Fdir.kind with
     | Aux_attrs.Freg -> drop_file_storage merged ufs_dir e.Fdir.fid
     | Aux_attrs.Fdir | Aux_attrs.Fgraft when Fdir.find_by_fid merged e.Fdir.fid <> None ->
       (* A rename left a dead birth and a live one for the same fid in
          this directory; the storage belongs to the surviving name. *)
       Ok ()
     | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
       let hex = Ids.fid_to_hex e.Fdir.fid in
       (match ufs_dir.Vnode.lookup hex with
        | Error Errno.ENOENT -> Ok ()
        | Error _ as err -> err
        | Ok child_ufs ->
          let* child_fdir = load_fdir t ~fid:e.Fdir.fid child_ufs in
          if Fdir.live_count child_fdir = 0 then begin
            let* () = rm_tree ufs_dir hex in
            ignore_enoent (ufs_dir.Vnode.remove (Ids.aux_name e.Fdir.fid))
          end
          else if t.dir_merge = `Crdt then begin
            (* CRDT mode: leave the subtree's storage in place behind
               the tombstone.  The repair pass re-parents it into the
               replicated lost+found as joinable Fdir ops, so every
               replica converges on the same placement — unlike the
               replica-local ORPHANS move below. *)
            Counters.incr t.counters "phys.crdt.kept_dead_dir";
            Ok ()
          end
          else begin
            (* Remove/update conflict: the directory died remotely while
               it gained content here.  Preserve the contents. *)
            let* orphanage = Namei.mkdir_p ~root:t.container orphans_dirname in
            let* uniq = alloc_uniq t in
            let orphan_name = Printf.sprintf "%s.%d" hex uniq in
            let* () = ufs_dir.Vnode.rename hex orphanage orphan_name in
            let* () = ignore_enoent (ufs_dir.Vnode.remove (Ids.aux_name e.Fdir.fid)) in
            let (_ : Conflict_log.entry) =
              Conflict_log.report t.conflicts ~vref:t.vref ~fidpath:(path @ [ e.Fdir.fid ])
                ~fid:e.Fdir.fid ~owner_uid:0 ~detected_at:(Clock.now t.clock)
                (Conflict_log.Removed_while_updated
                   { orphaned_to = orphans_dirname ^ "/" ^ orphan_name })
            in
            Log.warn (fun m ->
                m ~tags:(log_tags t.host) "r%d: directory %s removed remotely while updated here; contents preserved in %s"
                  t.rid hex orphan_name);
            Counters.incr t.counters "phys.conflict.orphan";
            Ok ()
          end))

let merge_dir t path ~remote_rid remote =
  let* ufs_dir = resolve_dir t path in
  let* local_bytes, local = load_fdir_bytes t ~fid:(path_fid path) ufs_dir in
  let peer_rids = List.map fst t.peers in
  (* CRDT mode keeps a tombstoned directory's storage in place for the
     repair pass — so its tombstone must stay discoverable too.  Defer
     expiry while the stored subtree still holds live entries; once
     repair re-parents it (the storage moves away or empties out) the
     tombstone expires on the next exchange. *)
  let may_expire (e : Fdir.entry) =
    t.dir_merge <> `Crdt
    ||
    match e.Fdir.kind with
    | Aux_attrs.Freg -> true
    | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
      (match ufs_dir.Vnode.lookup (Ids.fid_to_hex e.Fdir.fid) with
       | Error _ -> true
       | Ok child ->
         (match load_fdir t ~fid:e.Fdir.fid child with
          | Error _ -> true
          | Ok f ->
            if Fdir.live_count f = 0 then true
            else begin
              Counters.incr t.counters "phys.crdt.expire_deferred";
              false
            end))
  in
  let result =
    Fdir.merge ~may_expire ~local_rid:t.rid ~remote_rid ~peers:peer_rids local remote
  in
  let rec apply = function
    | [] -> Ok ()
    | a :: rest ->
      let* () = apply_action t path ufs_dir result.Fdir.merged a in
      apply rest
  in
  let* () = apply result.Fdir.actions in
  let merged_bytes = Fdir.encode result.Fdir.merged in
  (* Any observable change to the stored directory — entries, tombstone
     expiry, known-map gossip — is an incorporation event peers must not
     prune past.  The loaded bytes are [local]'s encoding, so a merge
     that changes none of them stores nothing.  Of the children, only
     those given storage here changed. *)
  let materialized = function
    | Fdir.Materialize e -> Some e.Fdir.fid
    | Fdir.Unmaterialize _ | Fdir.Expire _ -> None
  in
  let* () =
    if String.equal local_bytes merged_bytes then Ok ()
    else begin
      let* () = store_encoded t ~fid:(path_fid path) ufs_dir merged_bytes result.Fdir.merged in
      note_event t path ~changed:(List.filter_map materialized result.Fdir.actions);
      Ok ()
    end
  in
  List.iter
    (fun (colliding_name, births) ->
      let fid =
        match Fdir.find_birth result.Fdir.merged (List.hd births) with
        | Some e -> e.Fdir.fid
        | None -> Ids.root_fid
      in
      let (_ : Conflict_log.entry) =
        Conflict_log.report t.conflicts ~vref:t.vref ~fidpath:path ~fid ~owner_uid:0
          ~detected_at:(Clock.now t.clock)
          (Conflict_log.Name_collision { name = colliding_name; births })
      in
      Log.info (fun m ->
          m ~tags:(log_tags t.host) "r%d: name collision on %S in %s repaired deterministically" t.rid colliding_name
            (Ids.fidpath_to_string path));
      Counters.incr t.counters "phys.conflict.name")
    result.Fdir.new_collisions;
  Counters.incr t.counters "phys.merge_dir";
  Ok result

(* ------------------------------------------------------------------ *)
(* CRDT tree-repair primitives

   The repair pass ({!Crdt_merge}) works over *storage*, not the live
   namespace: in [`Crdt] mode tombstoned directories keep their UFS
   subtree in place, so a dir that lost every live link (concurrent
   cross-renames) is still addressable here.  These primitives expose
   exactly the mutations the repair needs, each expressed as an
   ordinary joinable Fdir operation so partial-knowledge replicas
   converge by merge. *)

(* Visit every directory whose storage is reachable under the
   namespace-parallel layout — dead entries included — exactly once. *)
let walk_stored_dirs t f =
  let visited = Hashtbl.create 32 in
  let rec go path ufs_dir =
    match load_fdir t ~fid:(path_fid path) ufs_dir with
    | Error Errno.ENOENT -> Ok () (* half-built storage; skip *)
    | Error _ as e -> e
    | Ok fdir ->
      f path fdir;
      let rec children = function
        | [] -> Ok ()
        | (e : Fdir.entry) :: rest ->
          (match e.Fdir.kind with
           | Aux_attrs.Freg -> children rest
           | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
             let hex = Ids.fid_to_hex e.Fdir.fid in
             if Hashtbl.mem visited hex then children rest
             else begin
               Hashtbl.replace visited hex ();
               match ufs_dir.Vnode.lookup hex with
               | Error Errno.ENOENT -> children rest
               | Error _ as err -> err
               | Ok child ->
                 let* () = go (path @ [ e.Fdir.fid ]) child in
                 children rest
             end)
      in
      children (Fdir.entries fdir)
  in
  Hashtbl.replace visited (Ids.fid_to_hex Ids.root_fid) ();
  let* root_ufs = t.container.Vnode.lookup (Ids.fid_to_hex Ids.root_fid) in
  go [] root_ufs

(* The UFS directory currently holding [fid]'s storage, if any. *)
let find_dir_storage t fid =
  let target = Ids.fid_to_hex fid in
  let found = ref None in
  let rec go ufs_dir =
    match ufs_dir.Vnode.lookup target with
    | Ok _ ->
      found := Some ufs_dir;
      Ok ()
    | Error _ ->
      let* entries = ufs_dir.Vnode.readdir () in
      let rec descend = function
        | [] -> Ok ()
        | (e : Vnode.dirent) :: rest ->
          if !found <> None then Ok ()
          else if
            e.Vnode.entry_kind <> Vnode.VDIR && e.Vnode.entry_kind <> Vnode.VGRAFT
          then descend rest
          else
            let* child = ufs_dir.Vnode.lookup e.Vnode.entry_name in
            let* () = go child in
            descend rest
      in
      descend entries
  in
  let* root_ufs = t.container.Vnode.lookup (Ids.fid_to_hex Ids.root_fid) in
  let* () = go root_ufs in
  Ok !found

(* Tombstone a live entry of the directory stored at [path] (a storage
   path — the directory itself may be behind a tombstone).  Idempotent:
   an already-dead or expired entry is a no-op. *)
let demote_entry t path birth =
  let* ufs_dir = resolve_dir t path in
  let* fdir = load_fdir t ~fid:(path_fid path) ufs_dir in
  match Fdir.kill fdir ~rid:t.rid birth with
  | Error Errno.ENOENT -> Ok false
  | Error _ as e -> e
  | Ok fdir ->
    let* () = store_fdir t ~fid:(path_fid path) ufs_dir fdir in
    note_event t path ~changed:[];
    dir_event t path;
    Counters.incr t.counters "phys.crdt.demote";
    Ok true

(* Ensure the lost+found entry and storage exist under the root.
   Returns its UFS dir, or [None] when an unrelated live "lost+found"
   already claims the name (user-created; repair then skips attaches). *)
let ensure_lost_found t =
  let* root_ufs = resolve_dir t [] in
  let* root_fdir = load_fdir t ~fid:Ids.root_fid root_ufs in
  let birth = { Fdir.b_rid = lost_found_fid.Ids.issuer; b_seq = lost_found_fid.Ids.uniq } in
  let storage () =
    match root_ufs.Vnode.lookup (Ids.fid_to_hex lost_found_fid) with
    | Ok v -> Ok v
    | Error Errno.ENOENT ->
      make_dir_storage t root_ufs lost_found_fid (Aux_attrs.make Aux_attrs.Fdir)
    | Error _ as e -> e
  in
  match Fdir.find_birth root_fdir birth with
  | Some { Fdir.status = Fdir.Live; _ } ->
    let* v = storage () in
    Ok (Some v)
  | Some _ -> Ok None (* the orphanage itself was removed; honor that *)
  | None ->
    (match
       Fdir.add root_fdir ~rid:t.rid ~name:lost_found_name ~fid:lost_found_fid
         ~kind:Aux_attrs.Fdir ~birth
     with
     | Error _ -> Ok None (* a user-created "lost+found" holds the name *)
     | Ok root_fdir ->
       let* v = storage () in
       let* () = store_fdir t ~fid:Ids.root_fid root_ufs root_fdir in
       note_event t [] ~changed:[ lost_found_fid ];
       dir_event t [];
       Ok (Some v))

(* Re-parent an unplaced directory into lost+found: add a live entry
   with a purely fid-derived name and the directory's own creation
   birth — both computable from the fid alone, so concurrent repairs on
   different replicas produce the *same* entry and join cleanly — then
   move its storage (subtree and aux) underneath.  Returns whether
   anything changed. *)
let attach_to_lost_found t ~fid ~kind =
  if Ids.fid_equal fid lost_found_fid || Ids.fid_equal fid Ids.root_fid then Ok false
  else
    let* lf = ensure_lost_found t in
    match lf with
    | None -> Ok false
    | Some lf_ufs ->
      let* lf_fdir = load_fdir t ~fid:lost_found_fid lf_ufs in
      let hex = Ids.fid_to_hex fid in
      let birth = { Fdir.b_rid = fid.Ids.issuer; b_seq = fid.Ids.uniq } in
      let lf_path = [ lost_found_fid ] in
      let* entry_added =
        match Fdir.find_birth lf_fdir birth with
        | Some _ -> Ok false (* attached before (possibly since removed by a user) *)
        | None ->
          (match Fdir.add lf_fdir ~rid:t.rid ~name:hex ~fid ~kind ~birth with
           | Error _ -> Ok false
           | Ok lf_fdir ->
             let* () = store_fdir t ~fid:lost_found_fid lf_ufs lf_fdir in
             note_event t lf_path ~changed:[ fid ];
             dir_event t lf_path;
             Ok true)
      in
      let* storage_moved =
        match lf_ufs.Vnode.lookup hex with
        | Ok _ -> Ok false
        | Error Errno.ENOENT ->
          let* holder = find_dir_storage t fid in
          (match holder with
           | Some parent_ufs ->
             let* () = Summary.before_move t.summaries (summary_io t) kind in
             let* () = parent_ufs.Vnode.rename hex lf_ufs hex in
             let* () =
               match Aux_attrs.load ~dir:parent_ufs fid with
               | Ok aux ->
                 let* () = Aux_attrs.store ~dir:lf_ufs fid aux in
                 ignore_enoent (parent_ufs.Vnode.remove (Ids.aux_name fid))
               | Error Errno.ENOENT -> Aux_attrs.store ~dir:lf_ufs fid (Aux_attrs.make kind)
               | Error _ as e -> e
             in
             Ok true
           | None ->
             (* Entry known, storage never materialized here. *)
             let* _v = make_dir_storage t lf_ufs fid (Aux_attrs.make kind) in
             Ok true)
        | Error _ as e -> e
      in
      if entry_added || storage_moved then begin
        note_event t lf_path ~changed:[ fid ];
        Counters.incr t.counters "phys.crdt.attach";
        Ok true
      end
      else Ok false

(* ------------------------------------------------------------------ *)
(* Graft points (paper §4.3)                                           *)

let volume_prefix = "volume."
let replica_prefix = "replica."
let volume_entry_name vref = volume_prefix ^ Ids.vref_to_string vref
let replica_entry_name r h = replica_prefix ^ Ctl_wire.peers_to_string [ (r, h) ]

let add_plain_entry t ufs_dir fdir name =
  let* fid, birth = fresh_id t in
  let* fdir = Fdir.add fdir ~rid:t.rid ~name ~fid ~kind:Aux_attrs.Freg ~birth in
  let* () = Aux_attrs.store ~dir:ufs_dir fid (Aux_attrs.make Aux_attrs.Freg) in
  Ok (fid, fdir)

let make_graft_point t ~parent ~name ~target ~replicas =
  let* ufs_dir = resolve_dir t parent in
  let* fdir = load_fdir t ~fid:(path_fid parent) ufs_dir in
  let* fid, birth = fresh_id t in
  let* fdir = Fdir.add fdir ~rid:t.rid ~name ~fid ~kind:Aux_attrs.Fgraft ~birth in
  let aux =
    { (Aux_attrs.make Aux_attrs.Fgraft) with Aux_attrs.graft_target = Some target }
  in
  let* child_ufs = make_dir_storage t ufs_dir fid aux in
  let* child_fdir = load_fdir t ~fid:fid child_ufs in
  let* _, child_fdir = add_plain_entry t child_ufs child_fdir (volume_entry_name target) in
  let rec add_replicas fdir = function
    | [] -> Ok fdir
    | (r, h) :: rest ->
      let* _, fdir = add_plain_entry t child_ufs fdir (replica_entry_name r h) in
      add_replicas fdir rest
  in
  let* child_fdir = add_replicas child_fdir replicas in
  let* () = store_fdir t ~fid:fid child_ufs child_fdir in
  let* () = store_fdir t ~fid:(path_fid parent) ufs_dir fdir in
  note_event t (parent @ [ fid ])
    ~changed:(List.map (fun e -> e.Fdir.fid) (Fdir.live_fids child_fdir));
  dir_event t parent;
  Ok ()

let graft_entries_of_fdir fdir =
  let suffix prefix name =
    let n = String.length prefix in
    if String.length name > n && String.sub name 0 n = prefix then
      Some (String.sub name n (String.length name - n))
    else None
  in
  let parse (name, _) (target, replicas) =
    match Option.bind (suffix volume_prefix name) Ids.vref_of_string with
    | Some vref -> (Some vref, replicas)
    | None ->
      (match Option.bind (suffix replica_prefix name) Ctl_wire.peer_of_string with
       | Some replica -> (target, replica :: replicas)
       | None -> (target, replicas))
  in
  match List.fold_right parse (Fdir.live fdir) (None, []) with
  | Some target, replicas -> Some (target, replicas)
  | None, _ -> None

let graft_point_info t path =
  let* fdir = fetch_dir t path in
  Option.to_result ~none:Errno.EIO (graft_entries_of_fdir fdir)

let add_graft_replica t path r h =
  update_dir t path (fun ufs_dir fdir ->
      let* fid, fdir = add_plain_entry t ufs_dir fdir (replica_entry_name r h) in
      Ok (fdir, [ fid ], ()))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

(* A fresh replica issues uniquifiers from 2 (1 is the root fid); an
   attached one from its META watermark. *)
let make ~obs ~container ~clock ~host ~vref ~rid ~peers ~next_uniq =
  {
    container;
    clock;
    host;
    vref;
    rid;
    next_uniq;
    peers;
    notifier = None;
    recon_notifier = None;
    conflicts = Conflict_log.create ();
    counters = Obs.counters obs;
    obs;
    open_count = 0;
    dir_merge = `Legacy;
    resolver = Resolver.Owner_report;
    summaries = Summary.create ~since:next_uniq;
    fdir_slots = Hashtbl.create 64;
    chunk_slots = Hashtbl.create 16;
  }

let create ~obs ~container ~clock ~host ~vref ~rid ~peers () =
  let t = make ~obs ~container ~clock ~host ~vref ~rid ~peers ~next_uniq:2 in
  let* () = store_meta t in
  let* _root = make_dir_storage t container Ids.root_fid (Aux_attrs.make Aux_attrs.Fdir) in
  Ok t

(* Remove leftover shadow files under [dir], recursively. *)
let rec sweep_shadows dir =
  let* entries = dir.Vnode.readdir () in
  let is_shadow name =
    let suffix = ".shadow" in
    String.length name > String.length suffix
    && String.sub name (String.length name - String.length suffix) (String.length suffix)
       = suffix
  in
  let rec go count = function
    | [] -> Ok count
    | e :: rest ->
      if is_shadow e.Vnode.entry_name then
        let* () = ignore_enoent (dir.Vnode.remove e.Vnode.entry_name) in
        go (count + 1) rest
      else if e.Vnode.entry_kind = Vnode.VDIR then
        let* child = dir.Vnode.lookup e.Vnode.entry_name in
        let* sub = sweep_shadows child in
        go (count + sub) rest
      else go count rest
  in
  go 0 entries

let recover t =
  let* root_ufs = t.container.Vnode.lookup (Ids.fid_to_hex Ids.root_fid) in
  sweep_shadows root_ufs

let attach ~obs ~container ~clock ~host () =
  (* Identity and peers come from META. *)
  let t =
    make ~obs ~container ~clock ~host ~vref:{ Ids.alloc = 0; vol = 0 } ~rid:0 ~peers:[]
      ~next_uniq:2
  in
  let* () = load_meta t in
  (* The change index starts empty: it covers the events from here on. *)
  let t = { t with summaries = Summary.create ~since:t.next_uniq } in
  let* _count = recover t in
  Ok t
