(* What the benchmark reads from the running cluster, through public
   accessors only: every counter source flattened into one table, and
   the replica-equality check behind the correctness gate. *)

(* Every counter source, summed over hosts: physical (per replica),
   logical, propagation and reconciliation counters, the network, each
   host's disk, buffer cache and journal, the daemon tick profile, the
   metrics registry and the span store.  Several daemons mirror their
   private counters into the registry; a registry counter is taken only
   when no private source already supplied that name. *)
let counters cluster =
  let tbl = Hashtbl.create 256 in
  let add k v =
    Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let add_set c = List.iter (fun (k, v) -> add k v) (Counters.snapshot c) in
  for i = 0 to Cluster.nhosts cluster - 1 do
    let h = Cluster.host cluster i in
    List.iter (fun (_, p) -> add_set (Physical.counters p)) (Cluster.replicas h);
    add_set (Logical.counters (Cluster.logical h));
    add_set (Propagation.counters (Cluster.propagation h));
    add_set (Recon_daemon.counters (Cluster.reconciler h));
    let ufs = Cluster.ufs h in
    add "disk.reads" (Disk.reads (Ufs.disk ufs));
    add "disk.writes" (Disk.writes (Ufs.disk ufs));
    add "cache.hits" (Block_cache.hits (Ufs.cache ufs));
    add "cache.misses" (Block_cache.misses (Ufs.cache ufs));
    List.iter (fun (k, v) -> add ("journal." ^ k) v) (Ufs.journal_stats ufs)
  done;
  add_set (Sim_net.counters (Cluster.net cluster));
  List.iter
    (fun (r : Health.Profile.row) ->
      let k = "prof." ^ r.Health.Profile.pr_daemon in
      add (k ^ ".us") r.Health.Profile.pr_us;
      add (k ^ ".ticks") r.Health.Profile.pr_ticks;
      add (k ^ ".activations") r.Health.Profile.pr_activations;
      add (k ^ ".work") r.Health.Profile.pr_work)
    (Health.Profile.rows (Cluster.profile cluster));
  let obs = Cluster.obs cluster in
  let private_keys = Hashtbl.copy tbl in
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem private_keys k) then add k v)
    (Metrics.snapshot obs.Obs.metrics).Metrics.snap_counters;
  add "spans.minted" (Span.minted obs.Obs.spans);
  add "spans.evicted" (Span.evicted obs.Obs.spans);
  tbl

(* [after - before], keeping every name either side has. *)
let diff ~before ~after =
  let get t k = Option.value ~default:0 (Hashtbl.find_opt t k) in
  let keys = Hashtbl.create 256 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) before;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) after;
  let d = Hashtbl.create 256 in
  Hashtbl.iter (fun k () -> Hashtbl.replace d k (get after k - get before k)) keys;
  d

(* Subtract [d] from [acc] in place. *)
let subtract acc d =
  Hashtbl.iter
    (fun k v -> Hashtbl.replace acc k (Option.value ~default:0 (Hashtbl.find_opt acc k) - v))
    d

(* Do every replica's trees agree: live names, fids and kinds in every
   directory, version vectors, and the digest of every file's contents?
   The replicas are walked in lockstep through [Physical.fetch_dir],
   [get_version] and [fetch_file], stopping at the first difference; a
   fetch error counts as a difference. *)
let identical (replicas : Physical.t list) =
  let exception Differ in
  let ok = function Ok v -> v | Error _ -> raise Differ in
  let same = function
    | [] -> ()
    | x :: rest -> if not (List.for_all (fun y -> y = x) rest) then raise Differ
  in
  let version p path =
    let vi = ok (Physical.get_version p path) in
    (Version_vector.to_string vi.Physical.vi_vv, vi.Physical.vi_stored)
  in
  let rec walk path =
    let listings =
      List.map
        (fun p ->
          List.map
            (fun (name, (e : Fdir.entry)) -> (name, e.Fdir.fid, e.Fdir.kind))
            (Fdir.live (ok (Physical.fetch_dir p path))))
        replicas
    in
    same listings;
    List.iter
      (fun (_, fid, kind) ->
        let child = path @ [ fid ] in
        same (List.map (fun p -> version p child) replicas);
        match kind with
        | Aux_attrs.Fdir | Aux_attrs.Fgraft -> walk child
        | Aux_attrs.Freg ->
          same
            (List.map (fun p -> Digest.string (snd (ok (Physical.fetch_file p child)))) replicas))
      (List.hd listings)
  in
  match
    same (List.map (fun p -> version p []) replicas);
    walk []
  with
  | () -> true
  | exception Differ -> false
