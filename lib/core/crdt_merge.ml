let ( let* ) = Result.bind

type repair_stats = {
  rs_demoted : int;
  rs_attached : int;
  rs_cycles_broken : int;
  rs_orphans : int;
}

let node_of (fid : Ids.file_id) = (fid.Ids.issuer, fid.Ids.uniq)
let fid_of (issuer, uniq) = { Ids.issuer; uniq }

(* Mirror a repair counter into both the replica's private counters and
   the cluster-wide registry. *)
let count ?n t key = Obs.count ?n (Physical.obs t) (Physical.counters t) key

(* ------------------------------------------------------------------ *)
(* Discovery: the stored parent graph

   Walks storage, not the live namespace: in [`Crdt] mode a directory
   tombstoned everywhere still has its UFS subtree in place, which is
   exactly what makes it repairable.  A fid whose storage exists in two
   places (a stale copy behind a tombstone plus the live one) is walked
   once, whichever copy the walk meets first; the copies' link sets may
   differ between replicas, but every decision applied below is a
   joinable directory op, so divergent discoveries still converge. *)

let discover t =
  let paths = Hashtbl.create 32 in (* node -> storage fidpath *)
  let kinds = Hashtbl.create 32 in (* node -> entry kind *)
  let nodes = ref [] in
  let links = ref [] in
  let* () =
    Physical.walk_stored_dirs t (fun path fdir ->
        let fid = match List.rev path with [] -> Ids.root_fid | f :: _ -> f in
        let n = node_of fid in
        if not (Hashtbl.mem paths n) then begin
          Hashtbl.replace paths n path;
          nodes := n :: !nodes
        end;
        List.iter
          (fun (name, (e : Fdir.entry)) ->
            match e.Fdir.kind with
            | Aux_attrs.Freg -> ()
            | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
              let c = node_of e.Fdir.fid in
              Hashtbl.replace kinds c e.Fdir.kind;
              links :=
                {
                  Crdt_tree.l_parent = n;
                  l_child = c;
                  l_name = name;
                  l_birth = (e.Fdir.birth.Fdir.b_rid, e.Fdir.birth.Fdir.b_seq);
                }
                :: !links)
          (Fdir.live fdir))
  in
  Ok (paths, kinds, !nodes, !links)

let repair t =
  let* paths, kinds, nodes, links = discover t in
  let res =
    Crdt_tree.resolve ~root:(node_of Ids.root_fid)
      ~orphanage:(node_of Physical.lost_found_fid) ~nodes ~links
  in
  (* Demotes are applied before attaches: their target paths were
     recorded during discovery and attaching moves storage. *)
  let demotes =
    List.filter_map
      (function Crdt_tree.Demote l -> Some l | Crdt_tree.Keep _ | Crdt_tree.Attach _ -> None)
      res.Crdt_tree.decisions
  in
  let attaches =
    List.filter_map
      (function Crdt_tree.Attach n -> Some n | Crdt_tree.Keep _ | Crdt_tree.Demote _ -> None)
      res.Crdt_tree.decisions
  in
  let demoted = ref 0 in
  let attached = ref 0 in
  let rec do_demotes = function
    | [] -> Ok ()
    | (l : Crdt_tree.link) :: rest ->
      (match Hashtbl.find_opt paths l.Crdt_tree.l_parent with
       | None -> do_demotes rest
       | Some path ->
         let birth =
           { Fdir.b_rid = fst l.Crdt_tree.l_birth; b_seq = snd l.Crdt_tree.l_birth }
         in
         let* changed = Physical.demote_entry t path birth in
         if changed then incr demoted;
         do_demotes rest)
  in
  let rec do_attaches = function
    | [] -> Ok ()
    | n :: rest ->
      let kind = Option.value ~default:Aux_attrs.Fdir (Hashtbl.find_opt kinds n) in
      let* changed = Physical.attach_to_lost_found t ~fid:(fid_of n) ~kind in
      if changed then incr attached;
      do_attaches rest
  in
  let* () = do_demotes demotes in
  let* () = do_attaches attaches in
  count t "crdt.merges";
  if !demoted > 0 then count ~n:!demoted t "crdt.losers_demoted";
  if !attached > 0 then count ~n:!attached t "crdt.orphans_attached";
  if res.Crdt_tree.cycles_broken > 0 then
    count ~n:res.Crdt_tree.cycles_broken t "crdt.cycles_broken";
  if !demoted + !attached > 0 then begin
    let obs = Physical.obs t in
    let tick = Clock.now (Physical.clock t) in
    let span = Span.start obs.Obs.spans ~host:(Physical.host t) ~tick "crdt:repair" in
    Span.event obs.Obs.spans span ~host:(Physical.host t) ~tick
      (Printf.sprintf "crdt:applied demote=%d attach=%d cycles=%d" !demoted !attached
         res.Crdt_tree.cycles_broken)
  end;
  Ok
    {
      rs_demoted = !demoted;
      rs_attached = !attached;
      rs_cycles_broken = res.Crdt_tree.cycles_broken;
      rs_orphans = res.Crdt_tree.orphans;
    }

(* ------------------------------------------------------------------ *)
(* Tree health: reachability, cycles, canonical digest                 *)

type tree_stats = {
  ts_reachable_dirs : int;
  ts_unreachable_dirs : int;
  ts_cycles : int;
}

module NodeSet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* Walk the live tree from the root, tolerating (and counting) cycles. *)
let live_walk t visit =
  let cycles = ref 0 in
  let seen = ref NodeSet.empty in
  let rec go path fid on_path =
    let n = node_of fid in
    if NodeSet.mem n on_path then begin
      incr cycles;
      Ok ()
    end
    else if NodeSet.mem n !seen then Ok ()
    else begin
      seen := NodeSet.add n !seen;
      let on_path = NodeSet.add n on_path in
      match Physical.fetch_dir t path with
      | Error Errno.ENOENT -> Ok () (* entry live, storage not materialized *)
      | Error _ as e -> e
      | Ok fdir ->
        let rec each = function
          | [] -> Ok ()
          | (name, (e : Fdir.entry)) :: rest ->
            let* () = visit path name e in
            let* () =
              match e.Fdir.kind with
              | Aux_attrs.Freg -> Ok ()
              | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
                go (path @ [ e.Fdir.fid ]) e.Fdir.fid on_path
            in
            each rest
        in
        each (Fdir.live fdir)
    end
  in
  let* () = go [] Ids.root_fid NodeSet.empty in
  Ok (!seen, !cycles)

let tree_stats t =
  let* reachable, cycles = live_walk t (fun _ _ _ -> Ok ()) in
  let unreachable = ref 0 in
  let* () =
    Physical.walk_stored_dirs t (fun path fdir ->
        let fid = match List.rev path with [] -> Ids.root_fid | f :: _ -> f in
        if (not (NodeSet.mem (node_of fid) reachable)) && Fdir.live_count fdir > 0 then
          incr unreachable)
  in
  Ok
    {
      ts_reachable_dirs = NodeSet.cardinal reachable;
      ts_unreachable_dirs = !unreachable;
      ts_cycles = cycles;
    }

let digest t =
  let buf = Buffer.create 256 in
  let* _reach, _cycles =
    live_walk t (fun path name e ->
        let p =
          String.concat "/" (List.map Ids.fid_to_hex path) ^ "/" ^ name
        in
        match e.Fdir.kind with
        | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
          Buffer.add_string buf (Printf.sprintf "D %s %s\n" p (Ids.fid_to_hex e.Fdir.fid));
          Ok ()
        | Aux_attrs.Freg ->
          let fpath = path @ [ e.Fdir.fid ] in
          (match Physical.fetch_file t fpath with
           | Ok (vi, data) ->
             Buffer.add_string buf
               (Printf.sprintf "F %s %s %s\n" p
                  (Version_vector.to_string vi.Physical.vi_vv)
                  (Chunking.digest_hex data));
             Ok ()
           | Error _ ->
             (* Entry known, contents not stored here yet. *)
             Buffer.add_string buf (Printf.sprintf "F %s ? ?\n" p);
             Ok ()))
  in
  Ok (Chunking.digest_hex (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* File conflicts as multi-value registers                             *)

type pending = {
  p_entry_ids : int list;
  p_fidpath : Physical.fidpath;
  p_fid : Ids.file_id;
  p_span : int;
  p_register : Mv_register.t;
}

let pending_file_groups t =
  let groups = ref [] in
  List.iter
    (fun (e : Conflict_log.entry) ->
      match e.Conflict_log.detail with
      | Conflict_log.Name_collision _ | Conflict_log.Removed_while_updated _ -> ()
      | Conflict_log.File_update { remote_vv; remote_data; _ } ->
        let key = e.Conflict_log.fidpath in
        let v = { Mv_register.mv_vv = remote_vv; mv_data = remote_data } in
        (match
           List.find_opt
             (fun (p, _, _) ->
               List.length p = List.length key && List.for_all2 Ids.fid_equal p key)
             !groups
         with
         | Some (_, ids, reg) ->
           ids := e.Conflict_log.id :: !ids;
           reg := v :: !reg
         | None ->
           groups :=
             (key, ref [ e.Conflict_log.id ], ref [ v ]) :: !groups))
    (Conflict_log.pending (Physical.conflicts t));
  List.rev !groups

let pending_registers t =
  List.filter_map
    (fun (fidpath, ids, remotes) ->
      match Physical.fetch_file t fidpath with
      | Error _ -> None
      | Ok (vi, data) ->
        let reg =
          List.fold_left Mv_register.add
            (Mv_register.add Mv_register.empty
               { Mv_register.mv_vv = vi.Physical.vi_vv; mv_data = data })
            !remotes
        in
        let fid = match List.rev fidpath with [] -> Ids.root_fid | f :: _ -> f in
        Some
          {
            p_entry_ids = List.rev !ids;
            p_fidpath = fidpath;
            p_fid = fid;
            p_span = vi.Physical.vi_span;
            p_register = reg;
          })
    (pending_file_groups t)

let resolve_pending local =
  let resolver = Physical.resolver local in
  match resolver with
  | Resolver.Owner_report -> 0
  | Resolver.Lww | Resolver.App_merge _ ->
    let t = local in
    List.fold_left
      (fun n p ->
        count t "crdt.mv_registers";
        let chosen =
          match resolver with
          | Resolver.Owner_report -> None
          | Resolver.Lww ->
            Option.map (fun (w : Mv_register.version) -> w.Mv_register.mv_data)
              (Mv_register.winner p.p_register)
          | Resolver.App_merge f ->
            Option.map (fun (v : Mv_register.version) -> v.Mv_register.mv_data)
              (Mv_register.merge_all f p.p_register)
        in
        match chosen, Physical.fetch_file t p.p_fidpath with
        | None, _ | _, Error _ -> n
        | Some data, Ok (vi, local_data) ->
          (* Install under the *join* of every version — no bump — so a
             replica resolving the same register independently installs
             byte-identical state and later compares Equal. *)
          let vv =
            List.fold_left
              (fun acc (v : Mv_register.version) -> Version_vector.merge acc v.Mv_register.mv_vv)
              vi.Physical.vi_vv
              (Mv_register.versions p.p_register)
          in
          let install =
            if Version_vector.equal vv vi.Physical.vi_vv && String.equal data local_data
            then Ok () (* local state already is the resolution *)
            else Physical.force_install t p.p_fidpath ~vv ~uid:vi.Physical.vi_uid ~data
          in
          (match install with
           | Error _ -> n
           | Ok () ->
             let (_ : int) =
               Conflict_log.resolve_matching (Physical.conflicts t) ~fidpath:p.p_fidpath
             in
             count t "crdt.resolver_invocations";
             n + 1))
      0 (pending_registers t)
