type host = {
  h_index : int;
  h_id : Sim_net.host_id;
  h_name : string;
  h_disk : Disk.t;
  h_ufs : Ufs.t;
  h_server : Nfs_server.t;
  h_logical : Logical.t;
  h_prop : Propagation.t;
  h_recon : Recon_daemon.t;
  h_gossip : Gossip.t option;
  h_control : (Raft.t * Control_plane.t) option;
      (* present on raft coordinator-group members only: the consensus
         core plus the control-plane registry it replicates *)
  mutable h_replicas : (Ids.volume_ref * Physical.t) list;
  h_replica_idx : (int * int, Physical.t) Hashtbl.t;
      (* (alloc, vol) -> the local replica: the volume-registry index,
         so per-volume lookups stop scanning the replica list *)
  h_mounts : (string * string, Nfs_client.m) Hashtbl.t;  (* server name, export *)
}

type t = {
  clock : Clock.t;
  net : Sim_net.t;
  obs : Obs.t;
  mutable hosts : host array;
      (* set once, at the end of [create]; closures built while the
         hosts are made hold this same record *)
  name_to_id : (string, Sim_net.host_id) Hashtbl.t;
  name_to_index : (string, int) Hashtbl.t;
  volumes : (int * int, (Ids.replica_id * string) list) Hashtbl.t;
  mutable next_vol : int;
  indexed : bool;
  journaled : bool;
  selection : Logical.selection;
  control_members : int list;
      (* coordinator-group host indexes; [] on gossip-only clusters *)
  dir_merge : [ `Legacy | `Crdt ];
  resolver : Resolver.t;
      (* the merge policy {!install_replica} gives every physical replica
         this cluster creates, adds or reboots *)
  (* The ready-queue. *)
  active : (int, unit) Hashtbl.t;
      (* host indexes that may have immediate work: a datagram was just
         delivered to them, or their last daemon run left propagation
         pulls pending *)
  mutable timer_wake : int;
      (* earliest tick at which any host's periodic timer (reconciler,
         gossip) can fire; 0 forces a full scan on the next tick *)
  peers_synced : (int, int) Hashtbl.t;
      (* host index -> Gossip.peers_version last folded into its
         physical layers' peer lists *)
  health : Health.t option;
      (* the convergence watchdog's SLO state; None = watchdog off,
         which is the default because sampling walks replica state *)
  mutable health_due : int; (* next tick the watchdog samples at *)
  mutable raft_churn_seen : int;
      (* raft.leader_changes high-water mark at the last health sample,
         so churn is a per-window delta rather than a lifetime count *)
  diverged_since : (int * int, int) Hashtbl.t;
      (* (alloc, vol) -> tick a volume was first seen diverged, the
         age fallback when no update span survives as evidence *)
  profile : Health.Profile.t;
      (* per-daemon tick profiler; always on (a few clock reads per
         tick), deliberately outside the metrics registry because
         wall-clock is not part of the linear/indexed equivalence *)
}

let clock t = t.clock
let net t = t.net
let obs t = t.obs
let profile t = t.profile
let nhosts t = Array.length t.hosts
let host t i = t.hosts.(i)
let host_name h = h.h_name
let ufs h = h.h_ufs
let disk h = h.h_disk
let logical h = h.h_logical
let propagation h = h.h_prop
let reconciler h = h.h_recon
let gossip h = h.h_gossip
let control_plane h = Option.map snd h.h_control
let replicas h = h.h_replicas

let replica h vref = Hashtbl.find_opt h.h_replica_idx (vref.Ids.alloc, vref.Ids.vol)

let index_replica h (vref : Ids.volume_ref) phys =
  Hashtbl.replace h.h_replica_idx (vref.Ids.alloc, vref.Ids.vol) phys

let mark_active t i = if t.indexed then Hashtbl.replace t.active i ()

let export_name (vref : Ids.volume_ref) rid =
  Printf.sprintf "vol.%d.%d.%d" vref.Ids.alloc vref.Ids.vol rid

let container_path (vref : Ids.volume_ref) rid =
  Printf.sprintf "volumes/vol.%d.%d.%d" vref.Ids.alloc vref.Ids.vol rid

let ( let* ) = Result.bind

(* The connector used by everything running on host [h]: a co-resident
   replica is its physical root directly; a remote one is an NFS mount
   of the replica's export (paper Figure 2).  Every [EUNREACHABLE] a
   mount or a call through one gets is a doubt for [h]'s failure
   detector: a notification from that host may have been lost. *)
let connector t h : Remote.connector =
 fun ~host ~vref ~rid ->
  if host = h.h_name then
    match replica h vref with
    | Some phys when Physical.rid phys = rid -> Ok (Physical.root phys)
    | Some _ | None -> Error Errno.ENOENT
  else
    match Hashtbl.find_opt t.name_to_id host with
    | None -> Error Errno.ENOENT
    | Some server_id ->
      let export = export_name vref rid in
      let key = (host, export) in
      let doubt () = Option.iter (fun g -> Gossip.doubt g host) h.h_gossip in
      (match Hashtbl.find_opt h.h_mounts key with
       | Some m -> Ok (Nfs_client.root m)
       | None ->
         (match Nfs_client.mount ~obs:t.obs t.net ~client:h.h_id ~server:server_id ~export with
          | Error e ->
            if e = Errno.EUNREACHABLE then doubt ();
            Error e
          | Ok m ->
            Nfs_client.on_unreachable m doubt;
            Hashtbl.replace h.h_mounts key m;
            Ok (Nfs_client.root m)))

let connect_from t i = connector t t.hosts.(i)

(* ------------------------------------------------------------------ *)
(* Control-plane client protocol (RPC to coordinator-group members).
   Submissions and reads go to whichever member currently leads;
   followers answer with a redirect hint, partitions with EUNREACHABLE —
   so a client on the minority side of a partition genuinely cannot
   mutate control state, which is the availability cost the CONSENSUS
   experiment measures. *)

type Sim_net.payload +=
  | Control_submit of { cs_cmd : string; cs_span : int }
  | Control_submitted of { cs_index : int; cs_term : int }
  | Control_redirect of { cr_leader : string option }
  | Control_poll of { cp_index : int; cp_term : int }
  | Control_polled of { cp_committed : bool }
  | Control_query of { cq_alloc : int; cq_vol : int }
  | Control_replicas of {
      cr_replicas : (int * string) list option;
      cr_applied : int;
    }

(* Raft hard state lives in one file on the member's own journaled UFS:
   [p_save] rewrites it and fsyncs (journal flush + checkpoint), so a
   {!reboot}'s [Ufs.crash_reboot] replays exactly the sealed prefix and
   {!Raft.crash_recover} finds the promised durable state. *)

let raft_save ufs s =
  let root = Ufs_vnode.root ufs in
  let dir =
    match Namei.mkdir_p ~root "raft" with
    | Ok d -> d
    | Error e -> failwith ("Cluster: raft dir: " ^ Errno.to_string e)
  in
  let file =
    match Namei.walk ~root "raft/state" with
    | Ok f -> f
    | Error _ -> (
      match dir.Vnode.create "state" with
      | Ok f -> f
      | Error e -> failwith ("Cluster: raft state: " ^ Errno.to_string e))
  in
  (match Vnode.overwrite file s with
  | Ok () -> ()
  | Error e -> failwith ("Cluster: raft persist: " ^ Errno.to_string e));
  match file.Vnode.fsync () with
  | Ok () -> ()
  | Error e -> failwith ("Cluster: raft fsync: " ^ Errno.to_string e)

let raft_load ufs () =
  let root = Ufs_vnode.root ufs in
  match Namei.walk ~root "raft/state" with
  | Ok f -> (
    match Vnode.read_all f with
    | Ok s when not (String.equal s "") -> Some s
    | Ok _ | Error _ -> None)
  | Error _ -> None

let control_rpc raft cp payload =
  match payload with
  | Control_submit { cs_cmd; cs_span } -> (
    match Raft.submit raft ~span:cs_span cs_cmd with
    | Ok idx ->
      Some (Control_submitted { cs_index = idx; cs_term = Raft.term raft })
    | Error hint -> Some (Control_redirect { cr_leader = hint }))
  | Control_poll { cp_index; cp_term } ->
    (* Committed iff the commit index covers it AND the entry still
       carries the term it was submitted under (an index alone can be
       re-occupied by a different command after a leader change). *)
    let committed =
      Raft.commit_index raft >= cp_index
      && (cp_index <= Raft.snapshot_index raft
         ||
         match List.assoc_opt cp_index (Raft.log_view raft) with
         | Some tm -> tm = cp_term
         | None -> false)
    in
    Some (Control_polled { cp_committed = committed })
  | Control_query { cq_alloc; cq_vol } ->
    if Raft.role raft = Raft.Leader then
      Some
        (Control_replicas
           {
             cr_replicas =
               Option.map fst
                 (Control_plane.volume cp ~alloc:cq_alloc ~vol:cq_vol);
             cr_applied = Control_plane.applied_index cp;
           })
    else Some (Control_redirect { cr_leader = Raft.leader_hint raft })
  | _ -> None

let create ?(seed = 11) ?(disk_blocks = 4096) ?(block_size = 1024) ?ninodes
    ?disk_blocks_for ?ninodes_for ?cache_capacity ?(propagation_delay = 0)
    ?(reconcile_period = 100) ?(selection = Logical.Most_recent)
    ?(journal_blocks = 0) ?gossip ?(indexed = true) ?(control = `Gossip) ?health
    ?(dir_merge = `Legacy) ?(resolver = Resolver.Owner_report) ~nhosts () =
  if nhosts <= 0 then invalid_arg "Cluster.create";
  let control_members =
    match control with
    | `Gossip -> []
    | `Raft members ->
      let members = List.sort_uniq compare members in
      if members = [] then invalid_arg "Cluster.create: empty raft group";
      List.iter
        (fun i ->
          if i < 0 || i >= nhosts then
            invalid_arg "Cluster.create: raft member out of range")
        members;
      members
  in
  let clock = Clock.create () in
  let obs = Obs.create () in
  let net = Sim_net.create ~seed ~obs ~indexed clock in
  let name_to_id = Hashtbl.create 8 in
  let name_to_index = Hashtbl.create 8 in
  let t =
    {
      clock;
      net;
      obs;
      hosts = [||];
      name_to_id;
      name_to_index;
      volumes = Hashtbl.create 8;
      next_vol = 1;
      indexed;
      journaled = journal_blocks > 0;
      selection;
      control_members;
      dir_merge;
      resolver;
      active = Hashtbl.create 64;
      timer_wake = 0;
      peers_synced = Hashtbl.create 64;
      health =
        Option.map (fun cfg -> Health.create ~metrics:obs.Obs.metrics cfg) health;
      health_due = 0;
      raft_churn_seen = 0;
      diverged_since = Hashtbl.create 4;
      profile = Health.Profile.create ();
    }
  in
  let make_host i =
    let h_name = Printf.sprintf "host%d" i in
    let h_id = Sim_net.add_host net h_name in
    Hashtbl.replace name_to_id h_name h_id;
    Hashtbl.replace name_to_index h_name i;
    let nblocks =
      match disk_blocks_for with Some f -> f i | None -> disk_blocks
    in
    let h_ninodes =
      match ninodes_for with Some f -> Some (f i) | None -> ninodes
    in
    let h_disk = Disk.create ~nblocks ~block_size () in
    let h_ufs =
      match
        Ufs.mkfs ?cache_capacity ?ninodes:h_ninodes ~journal_blocks
          ~now:(Clock.fn clock) h_disk
      with
      | Ok fs -> fs
      | Error e -> failwith ("Cluster: mkfs failed: " ^ Errno.to_string e)
    in
    let h_server = Nfs_server.create ~obs net ~host:h_id in
    (* The gossip daemon registers its own datagram handler; its
       liveness verdicts steer (but never gate) the host's daemons. *)
    let h_gossip =
      Option.map
        (fun config -> Gossip.create ~config ~seed:(seed + (977 * i)) ~obs ~net h_id)
        gossip
    in
    let detector =
      match h_gossip with Some g -> Gossip.detector g | None -> Gossip.no_detector
    in
    (* Coordinator-group members replicate the control-plane registry
       through Raft; the hard state persists on this host's own
       journaled UFS.  The raft daemon registers its own datagram
       handler, like gossip. *)
    let h_control =
      if List.mem i control_members then begin
        let peers = List.map (Printf.sprintf "host%d") control_members in
        let cp = Control_plane.create () in
        let persist =
          { Raft.p_save = raft_save h_ufs; p_load = raft_load h_ufs }
        in
        let r =
          Raft.create ~config:Raft.default_config ~seed:(seed + (4099 * i)) ~persist ~obs
            ~net
            ~peers
            ~apply:(fun ~index cmd -> Control_plane.apply cp ~index cmd)
            ~snapshot:(fun () -> Control_plane.snapshot cp)
            ~restore:(fun s -> Control_plane.restore cp s)
            h_id
        in
        Some (r, cp)
      end
      else None
    in
    let rec h =
      lazy
        ((* Defer forcing until the closures are actually called: the
            host record and its layers refer to each other. *)
         let connect ~host ~vref ~rid = connector t (Lazy.force h) ~host ~vref ~rid in
         let local_replica vref = replica (Lazy.force h) vref in
         let h_prop =
           Propagation.create ~delay:propagation_delay ~obs
             ~detector ~clock ~host:h_name ~connect ~local_replica ()
         in
         let h_logical =
           Logical.create ~selection ~obs ~detector ~local_replica
             ~nvc:(Propagation.cache h_prop) ~host:h_name ~clock ~connect ()
         in
         let h_recon =
           Recon_daemon.create ~period:reconcile_period ~obs
             ~liveness:detector.Gossip.liveness ~clock
             ~host:h_name ~connect
             ~replicas:(fun () -> (Lazy.force h).h_replicas) ()
         in
         {
           h_index = i;
           h_id;
           h_name;
           h_disk;
           h_ufs;
           h_server;
           h_logical;
           h_prop;
           h_recon;
           h_gossip;
           h_control;
           h_replicas = [];
           h_replica_idx = Hashtbl.create 4;
           h_mounts = Hashtbl.create 8;
         })
    in
    let host = Lazy.force h in
    Sim_net.register_handler net h_id (fun ~src:_ payload ->
        match payload with
        | Notify.Ficus_notify ev -> Propagation.on_notify host.h_prop ev
        | Notify.Ficus_reconciled ev -> Propagation.on_reconciled host.h_prop ev
        | _ -> ());
    (match host.h_control with
    | Some (r, cp) ->
      Sim_net.register_rpc net h_id (fun ~src:_ payload -> control_rpc r cp payload)
    | None -> ());
    host
  in
  let hosts = Array.init nhosts make_host in
  (* Bootstrap acquaintance (the static host list every real deployment
     has).  Everything {e about} each host — its replica sets, its
     departure, its liveness — converges epidemically from here on. *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a.h_index < b.h_index then
            match a.h_gossip, b.h_gossip with
            | Some ga, Some gb -> Gossip.introduce ga gb
            | _ -> ())
        hosts)
    hosts;
  t.hosts <- hosts;
  (* Feed the ready-queue: every delivered datagram (update notification,
     gossip leg, …) marks its destination runnable.  Sim_net host ids are
     assigned in creation order, so they equal cluster host indexes. *)
  if indexed then Sim_net.set_deliver_hook net (fun dst -> Hashtbl.replace t.active dst ());
  t

(* ------------------------------------------------------------------ *)
(* Volumes                                                             *)

let wire_notifier t h phys =
  let peers = Physical.peers phys in
  let send p =
    List.iter
      (fun (_rid, peer_host) ->
        if peer_host <> h.h_name then
          match Hashtbl.find_opt t.name_to_id peer_host with
          | Some dst -> Sim_net.send t.net ~src:h.h_id ~dst p
          | None -> ())
      peers
  in
  Physical.set_notifier phys (fun ev -> send (Notify.Ficus_notify ev));
  (* What reconciliation installs is notified too where a [Most_recent]
     logical layer with a failure detector leaves out the peers whose
     versions it has heard of: a peer is heard of only through its
     notifications. *)
  if t.selection = Logical.Most_recent && h.h_gossip <> None then
    Physical.set_recon_notifier phys (fun ev -> send (Notify.Ficus_reconciled ev))

(* Bring a replica into service on host [h]: give it the cluster's merge
   policy, wire its update notifier, export it over NFS and register it
   with the host.  The one path for a created, an added and a rebooted
   replica. *)
let install_replica t h vref phys =
  Physical.set_merge_policy phys ~dir_merge:t.dir_merge ~resolver:t.resolver;
  wire_notifier t h phys;
  Nfs_server.add_export h.h_server
    ~name:(export_name vref (Physical.rid phys))
    (Physical.root phys);
  h.h_replicas <- (vref, phys) :: h.h_replicas;
  index_replica h vref phys;
  (* The container mkdir or a journal replay may have staged work. *)
  mark_active t h.h_index

(* Re-publish a host's own replica set into its gossip entry; the delta
   then converges epidemically.  No-op on gossip-less clusters.
   [cindex] (raft-routed operations only) stamps the entry with the
   committed index the change was serialized at, so non-members can rank
   the freshness of gossip-carried control state against a
   coordinator's. *)
let seed_gossip t ~label ?cindex i =
  let h = t.hosts.(i) in
  match h.h_gossip with
  | None -> ()
  | Some g ->
    let triples =
      List.map
        (fun (vref, phys) -> (vref.Ids.alloc, vref.Ids.vol, Physical.rid phys))
        h.h_replicas
    in
    Gossip.set_replicas g ~label ?cindex triples

(* ------------------------------------------------------------------ *)
(* Daemons.  (Defined ahead of the volume operations: raft-routed
   control operations drive the daemons while waiting for commitment.) *)

let pump t = Sim_net.pump t.net

let run_propagation t =
  let total = ref 0 in
  let rec loop rounds =
    if rounds <= 0 then ()
    else begin
      let delivered = pump t in
      let attempted =
        Array.fold_left (fun acc h -> acc + Propagation.run_once h.h_prop) 0 t.hosts
      in
      total := !total + attempted;
      if delivered > 0 || attempted > 0 then loop (rounds - 1)
    end
  in
  loop 50;
  !total

(* After gossip has run, fold each host's membership view back into the
   peer lists its physical layers actually use: an epidemically learned
   join/leave changes who gets notified and who reconciliation visits,
   with no global fan-out ever having happened. *)
let sync_peers_from_gossip t =
  Array.iter
    (fun h ->
      match h.h_gossip with
      | None -> ()
      | Some g ->
        (* Deriving peer lists walks the whole membership table per
           replica; gate it on the table's peers_version so a quiet tick
           costs one integer compare per host instead.  The version
           bumps on exactly the changes replica_peers can observe, so
           the gated fold performs the same set_peers calls the ungated
           one would. *)
        let version = Gossip.peers_version g in
        let seen = Hashtbl.find_opt t.peers_synced h.h_index in
        if seen <> Some version then begin
          Hashtbl.replace t.peers_synced h.h_index version;
          List.iter
            (fun (vref, phys) ->
              let peers =
                Gossip.replica_peers g ~alloc:vref.Ids.alloc ~vol:vref.Ids.vol
              in
              let current = List.sort compare (Physical.peers phys) in
              if peers <> [] && peers <> current then begin
                (match Physical.set_peers phys peers with Ok () | Error _ -> ());
                wire_notifier t h phys;
                Metrics.incr t.obs.Obs.metrics "membership.peer_updates"
              end)
            h.h_replicas
        end)
    t.hosts

(* ------------------------------------------------------------------ *)
(* Convergence watchdog                                                *)

(* Full per-replica state walk: fidpath string -> version_info for every
   live entry, root included.  The divergence gauge compares these maps
   pairwise rather than trusting subtree summary vectors: those are a
   pruning claim (see {!Summary} for its two roles) that under-claims
   when bumps are lost, which is divergence the gauge must still see.
   Defensive on errors (a graft point mid-resolution just drops out of
   the map). *)
let walk_versions phys =
  let acc = Hashtbl.create 64 in
  (match Physical.get_version phys [] with
  | Ok vi -> Hashtbl.replace acc "" vi
  | Error _ -> ());
  let rec go path =
    match Physical.fetch_dir phys path with
    | Error _ -> ()
    | Ok fdir ->
      List.iter
        (fun (_name, (e : Fdir.entry)) ->
          let p = path @ [ e.Fdir.fid ] in
          (match Physical.get_version phys p with
          | Ok vi -> Hashtbl.replace acc (Ids.fidpath_to_string p) vi
          | Error _ -> ());
          match e.Fdir.kind with
          | Aux_attrs.Fdir | Aux_attrs.Fgraft -> go p
          | Aux_attrs.Freg -> ())
        (Fdir.live fdir)
  in
  go [];
  acc

(* Is any replica of [vref] holding a version some sibling has not yet
   dominated?  Returns [None] when fewer than two replicas are locally
   stored, otherwise [Some (diverged, evidence_span, oldest_start)]
   where the evidence span is the undominated entry's update span with
   the earliest start tick (the oldest update still in flight). *)
let volume_divergence t vref =
  let reps =
    Option.value ~default:[]
      (Hashtbl.find_opt t.volumes (vref.Ids.alloc, vref.Ids.vol))
  in
  let physes =
    List.filter_map
      (fun (_rid, host) ->
        match Hashtbl.find_opt t.name_to_index host with
        | None -> None
        | Some i -> replica t.hosts.(i) vref)
      reps
  in
  match physes with
  | [] | [ _ ] -> None
  | physes ->
    let maps = List.map walk_versions physes in
    let diverged = ref false in
    let best_span = ref Span.none in
    let best_start = ref max_int in
    let spans = t.obs.Obs.spans in
    let note_span sp =
      if sp <> Span.none then
        match Span.start_tick spans sp with
        | Some s when s < !best_start ->
          best_start := s;
          best_span := sp
        | Some _ -> ()
        | None -> if !best_span = Span.none then best_span := sp
    in
    List.iter
      (fun ma ->
        List.iter
          (fun mb ->
            if ma != mb then
              Hashtbl.iter
                (fun key (vib : Physical.version_info) ->
                  match Hashtbl.find_opt ma key with
                  | None ->
                    diverged := true;
                    note_span vib.Physical.vi_span
                  | Some (via : Physical.version_info) ->
                    if
                      not
                        (Version_vector.dominates via.Physical.vi_vv
                           vib.Physical.vi_vv)
                    then begin
                      diverged := true;
                      note_span vib.Physical.vi_span
                    end)
                mb)
          maps)
      maps;
    Some
      (!diverged, !best_span, if !best_start = max_int then None else Some !best_start)

(* One watchdog sample: derive every gauge from live cluster state, set
   it in the registry, and feed it through the SLO classifier.  Runs
   only when the cluster was created with [?health] — the divergence
   walk reads every replica, which is not free. *)
let health_sample t hd =
  let now = Clock.now t.clock in
  let m = t.obs.Obs.metrics in
  (* Oldest undominated update age, max over volumes.  A diverged
     volume always reports age >= 1 (the gauge being 0 means "all
     replicas dominate all installed versions", and the qcheck property
     in the test suite holds it to exactly that). *)
  let div_age = ref 0 in
  let div_span = ref Span.none in
  let div_detail = ref "" in
  Hashtbl.iter
    (fun (alloc, vol) _reps ->
      let vref = { Ids.alloc; vol } in
      match volume_divergence t vref with
      | None | Some (false, _, _) -> Hashtbl.remove t.diverged_since (alloc, vol)
      | Some (true, sp, start) ->
        let since =
          match Hashtbl.find_opt t.diverged_since (alloc, vol) with
          | Some s -> s
          | None ->
            Hashtbl.replace t.diverged_since (alloc, vol) now;
            now
        in
        let start = match start with Some s -> min s since | None -> since in
        let age = max 1 (now - start) in
        if age > !div_age then begin
          div_age := age;
          div_span := sp;
          div_detail := Printf.sprintf "volume %d.%d undominated" alloc vol
        end)
    t.volumes;
  Metrics.gauge_set m "health.divergence_age" !div_age;
  Health.observe hd ~tick:now ~gauge:"health.divergence_age" ~value:!div_age
    ~span:!div_span ~detail:!div_detail;
  (* Per-replica staleness: the oldest known-but-uninstalled version,
     read non-destructively out of each host's new-version cache.  Only
     nonzero samples go to the histogram, so staleness_p99 measures how
     stale things get when they are stale at all. *)
  let stale = ref 0 in
  let stale_span = ref Span.none in
  let stale_detail = ref "" in
  Array.iter
    (fun h ->
      List.iter
        (fun (e : New_version_cache.entry) ->
          let age = now - e.New_version_cache.queued_at in
          if age > !stale then begin
            stale := age;
            stale_span := e.New_version_cache.span;
            stale_detail :=
              Printf.sprintf "%s awaiting %s" h.h_name
                (Ids.fidpath_to_string e.New_version_cache.fidpath)
          end)
        (New_version_cache.peek (Propagation.cache h.h_prop)))
    t.hosts;
  Metrics.gauge_set m "health.staleness" !stale;
  if !stale > 0 then Metrics.observe m "health.staleness.ticks" !stale;
  Health.observe hd ~tick:now ~gauge:"health.staleness" ~value:!stale
    ~span:!stale_span ~detail:!stale_detail;
  (* Journal flush backlog: staged-but-unflushed group-commit records. *)
  let backlog =
    Array.fold_left
      (fun acc h ->
        acc
        + Option.value ~default:0
            (List.assoc_opt "staged" (Ufs.journal_stats h.h_ufs)))
      0 t.hosts
  in
  Metrics.gauge_set m "health.journal_backlog" backlog;
  Health.observe hd ~tick:now ~gauge:"health.journal_backlog" ~value:backlog
    ~span:Span.none ~detail:"staged journal records across hosts";
  (* Gossip suspicion: how many (observer, peer) edges the failure
     detector currently doubts. *)
  let suspects = ref 0 in
  let suspect_detail = ref "" in
  Array.iter
    (fun h ->
      match h.h_gossip with
      | None -> ()
      | Some g ->
        List.iter
          (fun (peer, _, _, _) ->
            if peer <> h.h_name && Gossip.liveness g peer = Gossip.Suspect
            then begin
              incr suspects;
              if !suspect_detail = "" then
                suspect_detail := Printf.sprintf "%s suspects %s" h.h_name peer
            end)
          (Gossip.view g))
    t.hosts;
  Metrics.gauge_set m "health.gossip_suspects" !suspects;
  Health.observe hd ~tick:now ~gauge:"health.gossip_suspects" ~value:!suspects
    ~span:Span.none ~detail:!suspect_detail;
  (* Raft leadership churn, as a per-window delta of the registry's
     lifetime leader_changes counter. *)
  let changes = Metrics.counter m "raft.leader_changes" in
  let churn = changes - t.raft_churn_seen in
  t.raft_churn_seen <- changes;
  Metrics.gauge_set m "health.raft_churn" churn;
  Health.observe hd ~tick:now ~gauge:"health.raft_churn" ~value:churn
    ~span:Span.none ~detail:"leader changes this window";
  (* Propagation backlog: pending new-version-cache entries. *)
  let pending =
    Array.fold_left (fun acc h -> acc + Propagation.pending h.h_prop) 0 t.hosts
  in
  Metrics.gauge_set m "health.prop_backlog" pending;
  Health.observe hd ~tick:now ~gauge:"health.prop_backlog" ~value:pending
    ~span:Span.none ~detail:"new-version cache entries across hosts"

(* The watchdog shares the daemons' cron: sample when the period timer
   is due.  Driven from [tick_daemons] after the mode-specific phase
   dispatch, so linear and indexed modes sample at identical ticks over
   identical state and the equivalence qcheck is undisturbed. *)
let health_tick t =
  match t.health with
  | None -> ()
  | Some hd ->
    let now = Clock.now t.clock in
    if now >= t.health_due then begin
      t.health_due <- now + (Health.config hd).Health.period;
      health_sample t hd
    end

let health_sample_now t =
  match t.health with None -> () | Some hd -> health_sample t hd

let health_events t =
  match t.health with None -> [] | Some hd -> Health.events hd

(* Wall-clock in whole microseconds: the profiler's unit.  (Absolute
   microseconds since the epoch still fit comfortably in 53 bits of
   float mantissa; nanoseconds would not.) *)
let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Advance time and drive every host's daemons, as a host's cron would:
   deliver datagrams, run gossip and raft rounds, run propagation, tick
   the periodic reconcilers.

   Indexed mode consults the ready-queue: a tick on a fully quiescent
   cluster — no deliverable datagrams, no host in [active], no timer
   due, no journal commit staged — returns after one cheap pump and
   three O(1) checks, and a busy tick still skips the hosts whose
   daemons would no-op.  Linear mode (the seed behavior, kept as the
   oracle) is the same body with every per-host "is it due" test forced
   true, relying on each daemon being a cheap no-op when idle.  Each
   per-host skip is individually a proven no-op (empty new-version
   cache, timer not due, nothing staged), so both modes produce
   identical cluster state, metrics and PRNG consumption; the
   equivalence qcheck in the test suite drives random schedules through
   both and compares everything. *)

let any_journal_pending t =
  t.journaled && Array.exists (fun h -> Ufs.journal_pending h.h_ufs) t.hosts

(* Indexed mode's requiesce: hosts that still owe propagation work stay
   runnable; everyone else sleeps until the earliest timer anywhere. *)
let requiesce t =
  Hashtbl.reset t.active;
  let wake = ref max_int in
  Array.iter
    (fun h ->
      if Propagation.pending h.h_prop > 0 then Hashtbl.replace t.active h.h_index ();
      let due = Recon_daemon.next_due h.h_recon in
      let due =
        match h.h_gossip with Some g -> min due (Gossip.next_due g) | None -> due
      in
      let due =
        match h.h_control with
        | Some (r, _) -> min due (Raft.next_due r)
        | None -> due
      in
      if due < !wake then wake := due)
    t.hosts;
  t.timer_wake <- !wake

let run_daemons t =
  let now = Clock.now t.clock in
  let due b = (not t.indexed) || b in
  let t0 = now_us () in
  let raft_acts =
    Array.fold_left
      (fun acc h ->
        match h.h_control with
        | Some (r, _) when due (Raft.next_due r <= now) ->
          Raft.tick r;
          acc + 1
        | Some _ | None -> acc)
      0 t.hosts
  in
  let t1 = now_us () in
  let gossip_acts, gossip_work =
    Array.fold_left
      (fun (n, w) h ->
        match h.h_gossip with
        | Some g when due (Gossip.next_due g <= now) -> (n + 1, w + Gossip.tick g)
        | Some _ | None -> (n, w))
      (0, 0) t.hosts
  in
  (* Datagrams delivered by this (or an earlier) pump may have merged
     fresh membership; apply it every tick, not just on round ticks. *)
  sync_peers_from_gossip t;
  let t2 = now_us () in
  (* The journal flush daemon runs off the same cron as propagation and
     reconciliation: age out any staged group commit.  (No-op on
     unjournaled hosts.  A flush that fails here keeps the commits
     staged for the next tick or flush; [Ufs.sync] reports it.) *)
  let journal_acts = ref 0 in
  Array.iter
    (fun h ->
      if due (Ufs.journal_pending h.h_ufs) then begin
        incr journal_acts;
        match Ufs.journal_tick h.h_ufs with Ok () | Error _ -> ()
      end)
    t.hosts;
  let t3 = now_us () in
  let prop_acts = ref 0 in
  let pulls =
    Array.fold_left
      (fun acc h ->
        if due (Propagation.pending h.h_prop > 0) then begin
          incr prop_acts;
          acc + Propagation.run_once h.h_prop
        end
        else acc)
      0 t.hosts
  in
  let t4 = now_us () in
  let recon_acts = ref 0 in
  let recon =
    Array.fold_left
      (fun acc h ->
        if due (Recon_daemon.next_due h.h_recon <= now) then
          match Recon_daemon.tick h.h_recon with
          | Some stats ->
            incr recon_acts;
            Reconcile.add_stats acc stats
          | None -> acc
        else acc)
      Reconcile.empty_stats t.hosts
  in
  let t5 = now_us () in
  let prof = t.profile in
  Health.Profile.record prof ~daemon:"raft" ~activations:raft_acts ~work:0 ~us:(t1 - t0);
  Health.Profile.record prof ~daemon:"gossip" ~activations:gossip_acts ~work:gossip_work
    ~us:(t2 - t1);
  Health.Profile.record prof ~daemon:"journal" ~activations:!journal_acts ~work:0
    ~us:(t3 - t2);
  Health.Profile.record prof ~daemon:"prop" ~activations:!prop_acts ~work:pulls
    ~us:(t4 - t3);
  Health.Profile.record prof ~daemon:"recon" ~activations:!recon_acts
    ~work:(recon.Reconcile.dirs_merged + recon.Reconcile.files_pulled)
    ~us:(t5 - t4);
  if t.indexed then requiesce t;
  (pulls, recon)

let tick_daemons t ticks =
  Clock.advance t.clock ticks;
  let (_ : int) = pump t in
  let quiescent =
    t.indexed
    && Hashtbl.length t.active = 0
    && Clock.now t.clock < t.timer_wake
    && not (any_journal_pending t)
  in
  let r = if quiescent then (0, Reconcile.empty_stats) else run_daemons t in
  health_tick t;
  r

(* ------------------------------------------------------------------ *)
(* Raft-routed control operations                                      *)

let is_raft t = t.control_members <> []

(* The tick budget a control op may spend finding a leader and waiting
   for its command to commit before failing.  Raft elections take 12-24
   ticks, so this covers a few of them. *)
let control_wait = 60

(* Submit one encoded control command from host [i]: find the leader
   (members answer redirects, partitions answer EUNREACHABLE), then
   drive the daemons until the command's (index, term) is committed.
   On failure nothing local has changed, and the ticks burnt are
   recorded as control-plane unavailability — the cost the CONSENSUS
   experiment quantifies against the gossip arm's divergence. *)
let raft_commit t ~src:i ?(span = Span.none) cmd =
  let h = t.hosts.(i) in
  let start = Clock.now t.clock in
  let deadline = start + control_wait in
  let m = t.obs.Obs.metrics in
  Metrics.incr m "control.ops";
  let call j msg = Sim_net.call t.net ~src:h.h_id ~dst:t.hosts.(j).h_id msg in
  let fail () =
    Metrics.incr m "control.failed_ops";
    Metrics.add m "control.unavailable_ticks" (Clock.now t.clock - start);
    Error Errno.EUNREACHABLE
  in
  let submit_msg = Control_submit { cs_cmd = cmd; cs_span = span } in
  (* Phase 1: get the command accepted by a leader. *)
  let rec find_leader () =
    let rec try_members = function
      | [] -> None
      | j :: rest -> (
        match call j submit_msg with
        | Ok (Control_submitted { cs_index; cs_term }) -> Some (j, cs_index, cs_term)
        | Ok _ | Error _ -> try_members rest)
    in
    match try_members t.control_members with
    | Some r -> Some r
    | None ->
      if Clock.now t.clock >= deadline then None
      else begin
        let (_ : int * Reconcile.stats) = tick_daemons t 1 in
        find_leader ()
      end
  in
  match find_leader () with
  | None -> fail ()
  | Some (j, idx, term) ->
    (* Phase 2: wait for commitment — confirmed by any member whose
       commit index covers (idx, term). *)
    let poll_msg = Control_poll { cp_index = idx; cp_term = term } in
    let rec wait_commit () =
      let confirmed =
        List.exists
          (fun k ->
            match call k poll_msg with
            | Ok (Control_polled { cp_committed }) -> cp_committed
            | Ok _ | Error _ -> false)
          (j :: List.filter (fun k -> k <> j) t.control_members)
      in
      if confirmed then begin
        Metrics.observe m "control.commit_ticks" (Clock.now t.clock - start);
        Ok idx
      end
      else if Clock.now t.clock >= deadline then fail ()
      else begin
        let (_ : int * Reconcile.stats) = tick_daemons t 1 in
        wait_commit ()
      end
    in
    wait_commit ()

(* Read the committed replica set of a volume from the current leader. *)
let raft_read_replicas t ~src:i vref =
  let h = t.hosts.(i) in
  let msg =
    Control_query { cq_alloc = vref.Ids.alloc; cq_vol = vref.Ids.vol }
  in
  let rec try_members = function
    | [] -> None
    | j :: rest -> (
      match Sim_net.call t.net ~src:h.h_id ~dst:t.hosts.(j).h_id msg with
      | Ok (Control_replicas { cr_replicas; cr_applied }) ->
        Some (cr_replicas, cr_applied)
      | Ok _ | Error _ -> try_members rest)
  in
  try_members t.control_members

(* Serialize [cmd] through the coordinator log from host [src].
   [Ok None] on gossip-only clusters, which have no log; otherwise the
   command's committed index. *)
let control_commit t ~src cmd =
  if not (is_raft t) then Ok None
  else
    let* idx = raft_commit t ~src (Control_plane.encode_cmd cmd) in
    Ok (Some idx)

(* With raft control, base a replica-set change on the leader's
   committed set when it is reachable — concurrent edits serialize
   through the log instead of racing on local views. *)
let committed_peers t ~src vref peers =
  if not (is_raft t) then peers
  else
    match raft_read_replicas t ~src vref with
    | Some (Some committed, _) -> committed
    | Some (None, _) | None -> peers

let create_volume t ~on =
  match on with
  | [] -> Error Errno.EINVAL
  | first :: _ ->
    let vref = { Ids.alloc = 0; vol = t.next_vol } in
    t.next_vol <- t.next_vol + 1;
    let peers = List.mapi (fun k i -> (k + 1, t.hosts.(i).h_name)) on in
    (* Raft control plane: serialize the registration through the
       coordinator log before any local mechanics.  No reachable quorum
       within the budget fails the operation with nothing changed
       anywhere. *)
    let* cindex =
      control_commit t ~src:first
        (Control_plane.Register_volume
           {
             rv_alloc = vref.Ids.alloc;
             rv_vol = vref.Ids.vol;
             rv_label = Printf.sprintf "vol%d" vref.Ids.vol;
             rv_replicas = peers;
           })
    in
    let rec place rid = function
      | [] -> Ok ()
      | i :: rest ->
        let h = t.hosts.(i) in
        let* container = Namei.mkdir_p ~root:(Ufs_vnode.root h.h_ufs) (container_path vref rid) in
        let* phys =
          Physical.create ~obs:t.obs ~container ~clock:t.clock ~host:h.h_name ~vref ~rid
            ~peers ()
        in
        install_replica t h vref phys;
        place (rid + 1) rest
    in
    let* () = place 1 on in
    Hashtbl.replace t.volumes (vref.Ids.alloc, vref.Ids.vol) peers;
    List.iter (fun i -> seed_gossip t ~label:"member:join" ?cindex i) on;
    Ok vref

let volume_peers t vref =
  match Hashtbl.find_opt t.volumes (vref.Ids.alloc, vref.Ids.vol) with
  | Some peers -> Ok peers
  | None -> Error Errno.ENOENT

(* Eagerly push a new peer list to every replica of [vref] this cluster
   can still reach.  This synchronous fan-out is the pre-gossip
   baseline, kept for comparison: gossip-enabled clusters never call it
   (the MEMBER experiment asserts ["membership.eager_pushes"] stays 0),
   letting the same delta converge epidemically instead. *)
let refresh_peers t vref peers =
  Metrics.incr t.obs.Obs.metrics "membership.eager_pushes";
  Hashtbl.replace t.volumes (vref.Ids.alloc, vref.Ids.vol) peers;
  Array.iter
    (fun h ->
      match replica h vref with
      | Some phys ->
        (match Physical.set_peers phys peers with Ok () | Error _ -> ());
        wire_notifier t h phys
      | None -> ())
    t.hosts

let add_replica t ~host:i vref =
  let* peers = volume_peers t vref in
  let h = t.hosts.(i) in
  if replica h vref <> None then Error Errno.EEXIST
  else begin
    let peers = committed_peers t ~src:i vref peers in
    let rid = 1 + List.fold_left (fun acc (r, _) -> max acc r) 0 peers in
    let peers = peers @ [ (rid, h.h_name) ] in
    let* cindex =
      control_commit t ~src:i
        (Control_plane.Set_replicas
           { sr_alloc = vref.Ids.alloc; sr_vol = vref.Ids.vol; sr_replicas = peers })
    in
    let* container =
      Namei.mkdir_p ~root:(Ufs_vnode.root h.h_ufs) (container_path vref rid)
    in
    let* phys =
      Physical.create ~obs:t.obs ~container ~clock:t.clock ~host:h.h_name ~vref ~rid
        ~peers ()
    in
    install_replica t h vref phys;
    (match h.h_gossip with
     | None -> refresh_peers t vref peers
     | Some _ ->
       (* Local operation only: record the authoritative set in the
          harness registry and seed the membership delta — every other
          replica learns the new peer epidemically via its own gossip
          table. *)
       Hashtbl.replace t.volumes (vref.Ids.alloc, vref.Ids.vol) peers;
       seed_gossip t ~label:"member:join" ?cindex i);
    (* Populate the newcomer from the first accessible existing replica. *)
    let connect = connector t h in
    let rec populate = function
      | [] -> Error Errno.EUNREACHABLE
      | (r, hname) :: rest when r <> rid ->
        (match connect ~host:hname ~vref ~rid:r with
         | Ok remote_root ->
           (match Reconcile.reconcile_volume ~local:phys ~remote_root ~remote_rid:r () with
            | Ok _ -> Ok ()
            | Error _ -> populate rest)
         | Error _ -> populate rest)
      | _ :: rest -> populate rest
    in
    let* () = populate peers in
    Ok rid
  end

let remove_replica t ~host:i vref =
  let* peers = volume_peers t vref in
  let h = t.hosts.(i) in
  match replica h vref with
  | None -> Error Errno.ENOENT
  | Some phys ->
    let rid = Physical.rid phys in
    let peers = committed_peers t ~src:i vref peers in
    let remaining = List.filter (fun (r, _) -> r <> rid) peers in
    (* Raft first: the retirement only takes effect once serialized;
       then the local drop, and — raft or not — the gossip delta, so
       non-members converge epidemically without waiting for a full
       anti-entropy exchange with a coordinator. *)
    let* cindex =
      control_commit t ~src:i
        (Control_plane.Set_replicas
           { sr_alloc = vref.Ids.alloc; sr_vol = vref.Ids.vol; sr_replicas = remaining })
    in
    h.h_replicas <- List.filter (fun (v, _) -> not (Ids.vref_equal v vref)) h.h_replicas;
    Hashtbl.remove h.h_replica_idx (vref.Ids.alloc, vref.Ids.vol);
    (match h.h_gossip with
     | None -> refresh_peers t vref remaining
     | Some _ ->
       Hashtbl.replace t.volumes (vref.Ids.alloc, vref.Ids.vol) remaining;
       seed_gossip t ~label:"member:leave" ?cindex i);
    Ok ()

(* Host [h]'s two local beliefs about who stores [vref], each with the
   committed control index it reflects: its gossip table's, and (on a
   coordinator member) the registry it applies from the raft log. *)
let gossip_view h vref =
  match h.h_gossip with
  | None -> None
  | Some g -> (
    match Gossip.replica_peers g ~alloc:vref.Ids.alloc ~vol:vref.Ids.vol with
    | [] -> None
    | reps -> Some (reps, Gossip.control_index g))

let member_view h vref =
  match h.h_control with
  | None -> None
  | Some (_, cp) ->
    Option.map
      (fun (reps, _) -> (reps, Control_plane.applied_index cp))
      (Control_plane.volume cp ~alloc:vref.Ids.alloc ~vol:vref.Ids.vol)

(* Pathname translation with a raft control plane resolves a (possibly
   stale) graft point from whichever view — this host's gossip table or
   the coordinator group's committed registry — carries the higher
   committed index.  The coordinator answer needs a reachable leader;
   gossip always answers, so the data plane never blocks on consensus. *)
let resolve_graft_peers t i vref =
  if not (is_raft t) then volume_peers t vref
  else begin
    let h = t.hosts.(i) in
    let m = t.obs.Obs.metrics in
    let coord_view =
      if Option.is_some h.h_control then member_view h vref
      else
        match raft_read_replicas t ~src:i vref with
        | Some (Some reps, applied) -> Some (reps, applied)
        | Some (None, _) | None -> None
    in
    match coord_view, gossip_view h vref with
    | Some (creps, ci), Some (greps, gi) ->
      if ci >= gi then begin
        Metrics.incr m "control.graft_from_coordinator";
        Ok creps
      end
      else begin
        Metrics.incr m "control.graft_from_gossip";
        Ok greps
      end
    | Some (creps, _), None ->
      Metrics.incr m "control.graft_from_coordinator";
      Ok creps
    | None, Some (greps, _) ->
      Metrics.incr m "control.graft_from_gossip";
      Ok greps
    | None, None -> volume_peers t vref
  end

let graft t i vref =
  let* peers = resolve_graft_peers t i vref in
  Logical.graft_volume t.hosts.(i).h_logical vref ~replicas:peers;
  Ok ()

let logical_root t i vref =
  let* () = graft t i vref in
  Logical.root t.hosts.(i).h_logical vref

(* Decommission a host for good: retire every replica it stores, then
   mark it [Left] in gossip.  The Left tombstone spreads epidemically,
   drops the host from every peer's derived replica lists, and — the
   point — shrinks the tombstone-GC dominance set, so directory
   tombstones stop waiting for a replica that will never reconcile
   again.  Its raft member (if any) goes permanently silent; the group
   is static, so quorum is now counted out of the original size. *)
let leave_host t i =
  let h = t.hosts.(i) in
  let vrefs = List.map fst h.h_replicas in
  List.iter
    (fun vref ->
      match remove_replica t ~host:i vref with Ok () | Error _ -> ())
    vrefs;
  (match h.h_gossip with Some g -> Gossip.leave g | None -> ());
  (match h.h_control with Some (r, _) -> Raft.stop r | None -> ());
  Metrics.incr t.obs.Obs.metrics "membership.hosts_left"

(* Host [i]'s current belief about who stores [vref]: a coordinator
   member answers from the committed registry when it is at least as
   fresh as its gossip view; everyone else answers from gossip; clusters
   without either fall back to the harness registry.  The CONSENSUS
   experiment measures divergence as disagreement between these views
   across hosts. *)
let replica_view t i vref =
  let h = t.hosts.(i) in
  match member_view h vref, gossip_view h vref with
  | Some (creps, ci), Some (_, gi) when ci >= gi -> creps
  | _, Some (greps, _) -> greps
  | Some (creps, _), None -> creps
  | None, None -> (
    match volume_peers t vref with Ok p -> p | Error _ -> [])

(* The coordinator member currently acting as leader (highest term wins
   if a deposed leader has not yet heard better); [None] without raft or
   during an election. *)
let raft_leader t =
  List.fold_left
    (fun acc i ->
      match t.hosts.(i).h_control with
      | Some (r, _) when Raft.role r = Raft.Leader -> (
        match acc with
        | Some (_, best) when best >= Raft.term r -> acc
        | _ -> Some (i, Raft.term r))
      | _ -> acc)
    None t.control_members
  |> Option.map fst

(* ------------------------------------------------------------------ *)
(* Failure and time control                                            *)

let partition t groups =
  Sim_net.set_partition t.net (List.map (List.map (fun i -> t.hosts.(i).h_id)) groups)

let heal t = Sim_net.heal t.net

let set_faults t f = Sim_net.set_faults t.net f

let sever t i j = Sim_net.sever t.net ~src:t.hosts.(i).h_id ~dst:t.hosts.(j).h_id

let set_flaky t i ~until = Sim_net.set_flaky t.net t.hosts.(i).h_id ~until

let advance t n = Clock.advance t.clock n

let reboot t i =
  let h = t.hosts.(i) in
  (* Power failure: cold cache, volatile journal state lost, sealed
     journal groups replayed from the device. *)
  let* () = Ufs.crash_reboot h.h_ufs in
  (* A reboot that surfaces a corrupt file system must never be papered
     over by silently remounting: fail the simulation loudly. *)
  (match Ufs.check h.h_ufs with
   | Ok () -> ()
   | Error msg ->
     failwith (Printf.sprintf "Cluster.reboot: fsck on %s found corruption: %s" h.h_name msg));
  Nfs_server.restart h.h_server;
  Hashtbl.iter (fun _ m -> Nfs_client.flush_caches m) h.h_mounts;
  (* Other hosts' NFS mounts to this server now hold stale handles; model
     their clients re-mounting after the reboot is noticed. *)
  Array.iter
    (fun other ->
      if other.h_index <> i then begin
        let stale =
          Hashtbl.fold
            (fun (server, export) _ acc ->
              if server = h.h_name then (server, export) :: acc else acc)
            other.h_mounts []
        in
        List.iter (Hashtbl.remove other.h_mounts) stale;
        Logical.reset_connections other.h_logical
      end)
    t.hosts;
  Logical.reset_connections h.h_logical;
  (* Re-attach every volume replica from disk (shadow cleanup included),
     in the order the host lists them, then install them oldest-first so
     the list keeps its order: reconciliation walks it, so it decides
     the order of RPCs.  The merge policy is volatile configuration, not
     replica state; installing re-applies it. *)
  let rec reattach acc = function
    | [] -> Ok (List.rev acc)
    | (vref, phys) :: rest ->
      let path = container_path vref (Physical.rid phys) in
      let* container = Namei.walk ~root:(Ufs_vnode.root h.h_ufs) path in
      let* fresh = Physical.attach ~obs:t.obs ~container ~clock:t.clock ~host:h.h_name () in
      reattach ((vref, fresh) :: acc) rest
  in
  let* fresh_replicas = reattach [] h.h_replicas in
  h.h_replicas <- [];
  List.iter (fun (vref, phys) -> install_replica t h vref phys) (List.rev fresh_replicas);
  (* The raft member restarts from the hard state the journal replay
     just recovered: term, vote, log and snapshot survive; role and
     commit progress are volatile and rebuilt by the protocol. *)
  (match h.h_control with
  | Some (r, _) -> Raft.crash_recover r
  | None -> ());
  (* Journal replay / fsck may have left work; re-run this host soon. *)
  mark_active t i;
  Ok ()

let volume_replicas_in_order t vref =
  let* peers = volume_peers t vref in
  let find (rid, hname) =
    match Hashtbl.find_opt t.name_to_index hname with
    | None -> None
    | Some i ->
      (match replica t.hosts.(i) vref with
       | Some phys -> Some (i, rid, phys)
       | None -> None)
  in
  Ok (List.filter_map find peers)

(* Reconcile one (local pulls from remote) pair, folding into stats. *)
let reconcile_pair t vref stats (local_i, _local_rid, local_phys) (remote_i, remote_rid, _) =
  let connect = connect_from t local_i in
  match connect ~host:t.hosts.(remote_i).h_name ~vref ~rid:remote_rid with
  | Error _ -> Reconcile.add_stats stats { Reconcile.empty_stats with errors = 1 }
  | Ok remote_root ->
    (match
       Reconcile.reconcile_volume ~local:local_phys ~remote_root ~remote_rid ()
     with
     | Ok s -> Reconcile.add_stats stats s
     | Error _ -> Reconcile.add_stats stats { Reconcile.empty_stats with errors = 1 })

let reconcile_ring t vref =
  let* reps = volume_replicas_in_order t vref in
  let n = List.length reps in
  if n < 2 then Ok Reconcile.empty_stats
  else begin
    let arr = Array.of_list reps in
    let stats = ref Reconcile.empty_stats in
    for k = 0 to n - 1 do
      stats := reconcile_pair t vref !stats arr.(k) arr.((k + 1) mod n)
    done;
    Ok !stats
  end

let reconcile_all_pairs t vref =
  let* reps = volume_replicas_in_order t vref in
  let arr = Array.of_list reps in
  let n = Array.length arr in
  let stats = ref Reconcile.empty_stats in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then stats := reconcile_pair t vref !stats arr.(i) arr.(j)
    done
  done;
  Ok !stats

let reconcile_star t vref ~hub =
  let* reps = volume_replicas_in_order t vref in
  match List.find_opt (fun (i, _, _) -> i = hub) reps, reps with
  | None, [] -> Ok Reconcile.empty_stats
  | Some hub_entry, _ | None, hub_entry :: _ ->
    let h, _, _ = hub_entry in
    let spokes = List.filter (fun (i, _, _) -> i <> h) reps in
    let stats =
      List.fold_left (fun s spoke -> reconcile_pair t vref s hub_entry spoke)
        Reconcile.empty_stats spokes
    in
    Ok (List.fold_left (fun s spoke -> reconcile_pair t vref s spoke hub_entry) stats spokes)

let quiet (s : Reconcile.stats) =
  s.Reconcile.files_pulled = 0
  && s.Reconcile.entries_materialized = 0
  && s.Reconcile.entries_unmaterialized = 0
  && s.Reconcile.tombstones_expired = 0

let converge t vref ?(max_rounds = 10) () =
  let rec go round =
    if round > max_rounds then Error Errno.EAGAIN
    else
      let* stats = reconcile_ring t vref in
      if quiet stats then Ok round else go (round + 1)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Membership introspection                                            *)

(* Heartbeats advance forever, so equality is taken over the
   heartbeat-free view: host, incarnation, status, replica set. *)
let membership_converged t =
  let views =
    Array.to_list t.hosts
    |> List.filter_map (fun h -> Option.map Gossip.view h.h_gossip)
  in
  match views with
  | [] -> true
  | v :: rest -> List.for_all (fun v' -> v' = v) rest

let await_membership t ~max_rounds =
  let period =
    match Array.find_map (fun h -> h.h_gossip) t.hosts with
    | Some g -> (Gossip.config g).Gossip.period
    | None -> 1
  in
  let rec go n =
    if n >= max_rounds || membership_converged t then n
    else begin
      ignore (tick_daemons t period);
      go (n + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

type metrics_snapshot = {
  ms_metrics : Metrics.snapshot;
  ms_spans : (int * Span.event list) list;
}

let metrics_snapshot t =
  (* Journal counters live inside each host's UFS; fold them into the
     registry as cluster-wide gauges so one snapshot carries everything
     (gauges, not counters — re-snapshotting must not double-count). *)
  let totals = Hashtbl.create 16 in
  Array.iter
    (fun h ->
      List.iter
        (fun (k, v) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt totals k) in
          Hashtbl.replace totals k (prev + v))
        (Ufs.journal_stats h.h_ufs))
    t.hosts;
  Hashtbl.iter
    (fun k v -> Metrics.gauge_set t.obs.Obs.metrics ("journal." ^ k) v)
    totals;
  let spans = t.obs.Obs.spans in
  (* Span-store occupancy rides along as a gauge (the eviction counter
     is maintained live by Obs.create's evict notify). *)
  Metrics.gauge_set t.obs.Obs.metrics "spans.live" (Span.live spans);
  {
    ms_metrics = Metrics.snapshot t.obs.Obs.metrics;
    ms_spans = List.map (fun id -> (id, Span.timeline spans id)) (Span.ids spans);
  }
