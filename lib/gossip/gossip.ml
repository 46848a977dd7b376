(* Epidemic membership & anti-entropy peer state.  See gossip.mli for
   the model; the short version: every host owns exactly one entry,
   stamps it with (incarnation, heartbeat), and tables converge by
   periodic random push/pull because the per-entry join is a max over a
   total order. *)

let src = Logs.Src.create "gossip" ~doc:"Epidemic membership"

module Log = (val Logs.src_log src : Logs.LOG)

type liveness = Alive | Suspect | Dead

let liveness_to_string = function
  | Alive -> "alive"
  | Suspect -> "suspect"
  | Dead -> "dead"

type status = Member | Left

type entry = {
  e_host : string;
  e_incarnation : int;
  e_heartbeat : int;
  e_status : status;
  e_replicas : (int * int * int) list;
  e_cindex : int;
  e_span : int;
}

let status_rank = function Member -> 0 | Left -> 1

(* The join below is [max] by this key, which makes it a semilattice:
   commutative, associative, idempotent.  That is the whole correctness
   argument for anti-entropy — any delivery order with any duplication
   converges — and the qcheck suite checks it mechanically.  Status,
   replicas and the control index participate so even stamp ties (which
   owner-only mutation should never produce, but dropped-and-reordered
   wires might) resolve identically everywhere. *)
let entry_key e =
  ( e.e_incarnation,
    e.e_heartbeat,
    status_rank e.e_status,
    e.e_replicas,
    e.e_cindex,
    e.e_span )

let entry_join a b =
  if not (String.equal a.e_host b.e_host) then
    invalid_arg "Gossip.entry_join: different hosts";
  if compare (entry_key a) (entry_key b) >= 0 then a else b

let entry_fresher a b =
  compare (a.e_incarnation, a.e_heartbeat) (b.e_incarnation, b.e_heartbeat) > 0

type config = {
  period : int;
  suspect_missed : int;
  dead_missed : int;
  dead_probe_one_in : int;
}

let default_config =
  { period = 4; suspect_missed = 3; dead_missed = 8; dead_probe_one_in = 4 }

type peer_state = {
  mutable p_entry : entry;
  mutable p_last_heard : int;
  mutable p_liveness : liveness;
}

type t = {
  g_host : string;
  g_id : Sim_net.host_id;
  g_net : Sim_net.t;
  g_clock : Clock.t;
  g_obs : Obs.t;
  g_config : config;
  g_rng : Random.State.t;
  g_table : (string, peer_state) Hashtbl.t;
  mutable g_next_round : int;
  mutable g_next_due : int;
      (* earliest tick at which tick can do anything: the next round
         boundary, or the earliest liveness-threshold crossing among
         peers.  Datagram arrival resets it to now (a merge can change
         verdicts immediately).  Conservative: running tick earlier is
         always a no-op. *)
  mutable g_peers_version : int;
      (* bumped whenever the table changes in a way replica_peers or
         view could observe (entry learned, status or replica-set
         changed) — lets consumers cache derived peer lists *)
}

(* Wire protocol: three asynchronous datagrams per exchange.  A digest
   carries stamps only; full entries travel in the two delta legs. *)

type digest_item = { d_host : string; d_incarnation : int; d_heartbeat : int }

type Sim_net.payload +=
  | Gossip_syn of { g_from : string; g_digest : digest_item list }
  | Gossip_ack of { g_from : string; g_delta : entry list; g_want : string list }
  | Gossip_ack2 of { g_from : string; g_delta : entry list }

let now t = Clock.now t.g_clock
let metrics t = t.g_obs.Obs.metrics
let spans t = t.g_obs.Obs.spans

let self t = Hashtbl.find t.g_table t.g_host

let config t = t.g_config

let find_id t name =
  List.find_opt
    (fun id -> String.equal (Sim_net.host_name t.g_net id) name)
    (Sim_net.hosts t.g_net)

(* Failure detection: verdicts derive from the last-heard tick, so any
   direct message — or an indirectly learned fresher entry — refutes
   suspicion.  Transitions are recorded in both halves of Obs. *)

let verdict t ps =
  if String.equal ps.p_entry.e_host t.g_host then Alive
  else if ps.p_entry.e_status = Left then Dead
  else
    let age = now t - ps.p_last_heard in
    if age < t.g_config.period * t.g_config.suspect_missed then Alive
    else if age < t.g_config.period * t.g_config.dead_missed then Suspect
    else Dead

let refresh_liveness t =
  Hashtbl.iter
    (fun _ ps ->
      let next = verdict t ps in
      if next <> ps.p_liveness then begin
        let label =
          Printf.sprintf "gossip:%s" (liveness_to_string next)
        in
        Metrics.incr (metrics t)
          (match next with
          | Suspect -> "gossip.suspect_events"
          | Dead -> "gossip.dead_events"
          | Alive -> "gossip.alive_events");
        let span = Span.start (spans t) ~host:t.g_host ~tick:(now t) label in
        Span.event (spans t) span ~host:t.g_host ~tick:(now t)
          (Printf.sprintf "%s judges %s %s" t.g_host ps.p_entry.e_host
             (liveness_to_string next));
        Log.debug (fun m ->
            m "%s: %s is now %s" t.g_host ps.p_entry.e_host
              (liveness_to_string next));
        ps.p_liveness <- next
      end)
    t.g_table

let note_heard t name =
  t.g_next_due <- now t;
  match Hashtbl.find_opt t.g_table name with
  | Some ps when not (String.equal name t.g_host) ->
      ps.p_last_heard <- now t
  | _ -> ()

(* Merge one received entry.  Owner-only mutation means a fresher entry
   is always strictly better news; the join keeps the table a lattice
   even when it is not. *)
let merge t e =
  t.g_next_due <- now t;
  if String.equal e.e_host t.g_host then begin
    (* Someone is spreading fresher news about us than we ourselves
       hold — a stale [Left] tombstone, or state from before a restart.
       We are demonstrably alive, so refute with a higher incarnation
       (the version-vector move: dominate, don't argue). *)
    let ps = self t in
    if compare (entry_key e) (entry_key ps.p_entry) > 0 then begin
      ps.p_entry <-
        {
          ps.p_entry with
          e_incarnation = e.e_incarnation + 1;
          e_heartbeat = ps.p_entry.e_heartbeat + 1;
        };
      Metrics.incr (metrics t) "gossip.refutes";
      Span.event (spans t) ps.p_entry.e_span ~host:t.g_host ~tick:(now t)
        "gossip:refute"
    end
  end
  else
    match Hashtbl.find_opt t.g_table e.e_host with
    | None ->
        Hashtbl.replace t.g_table e.e_host
          {
            p_entry = e;
            p_last_heard = now t;
            p_liveness = (if e.e_status = Left then Dead else Alive);
          };
        t.g_peers_version <- t.g_peers_version + 1;
        Metrics.incr (metrics t) "gossip.members_learned";
        Span.event (spans t) e.e_span ~host:t.g_host ~tick:(now t)
          "gossip:learn"
    | Some ps ->
        let old = ps.p_entry in
        let joined = entry_join old e in
        if compare (entry_key joined) (entry_key old) <> 0 then begin
          ps.p_entry <- joined;
          if joined.e_status <> old.e_status || joined.e_replicas <> old.e_replicas
          then t.g_peers_version <- t.g_peers_version + 1;
          Metrics.incr (metrics t) "gossip.updates";
          if entry_fresher e old then
            (* Fresh evidence of life, even secondhand, resets the
               failure detector (and may refute a suspicion on the next
               refresh). *)
            ps.p_last_heard <- now t;
          if e.e_span <> Span.none && e.e_span <> old.e_span then
            Span.event (spans t) e.e_span ~host:t.g_host ~tick:(now t)
              "gossip:learn"
        end

let digest t =
  Hashtbl.fold
    (fun _ ps acc ->
      {
        d_host = ps.p_entry.e_host;
        d_incarnation = ps.p_entry.e_incarnation;
        d_heartbeat = ps.p_entry.e_heartbeat;
      }
      :: acc)
    t.g_table []

let stamp_of t name =
  Option.map
    (fun ps -> (ps.p_entry.e_incarnation, ps.p_entry.e_heartbeat))
    (Hashtbl.find_opt t.g_table name)

(* Entries of ours strictly fresher than the remote digest (or absent
   from it). *)
let fresher_than_digest t dg =
  Hashtbl.fold
    (fun name ps acc ->
      let mine = (ps.p_entry.e_incarnation, ps.p_entry.e_heartbeat) in
      let theirs =
        List.find_opt (fun d -> String.equal d.d_host name) dg
        |> Option.map (fun d -> (d.d_incarnation, d.d_heartbeat))
      in
      match theirs with
      | Some st when compare st mine >= 0 -> acc
      | _ -> ps.p_entry :: acc)
    t.g_table []

(* Hosts the remote digest knows better than we do. *)
let wanted_from_digest t dg =
  List.filter_map
    (fun d ->
      match stamp_of t d.d_host with
      | None -> Some d.d_host
      | Some mine ->
          if compare (d.d_incarnation, d.d_heartbeat) mine > 0 then
            Some d.d_host
          else None)
    dg

let send t ~dst payload =
  match find_id t dst with
  | Some id -> Sim_net.send t.g_net ~src:t.g_id ~dst:id payload
  | None -> ()

let handle t ~src:_ payload =
  match payload with
  | Gossip_syn { g_from; g_digest } ->
      Metrics.incr (metrics t) "gossip.syn_received";
      note_heard t g_from;
      let delta = fresher_than_digest t g_digest in
      let want = wanted_from_digest t g_digest in
      send t ~dst:g_from
        (Gossip_ack { g_from = t.g_host; g_delta = delta; g_want = want })
  | Gossip_ack { g_from; g_delta; g_want } ->
      Metrics.incr (metrics t) "gossip.exchanges";
      note_heard t g_from;
      List.iter (merge t) g_delta;
      let reply =
        List.filter_map
          (fun name ->
            Option.map
              (fun ps -> ps.p_entry)
              (Hashtbl.find_opt t.g_table name))
          g_want
      in
      if reply <> [] then
        send t ~dst:g_from (Gossip_ack2 { g_from = t.g_host; g_delta = reply })
  | Gossip_ack2 { g_from; g_delta } ->
      note_heard t g_from;
      List.iter (merge t) g_delta
  | _ -> ()

let create ~config ~seed ~obs ~net id =
  let name = Sim_net.host_name net id in
  let t =
    {
      g_host = name;
      g_id = id;
      g_net = net;
      g_clock = Sim_net.clock net;
      g_obs = obs;
      g_config = config;
      g_rng = Random.State.make [| seed; id |];
      g_table = Hashtbl.create 16;
      g_next_round = 0;
      g_next_due = 0;
      g_peers_version = 0;
    }
  in
  let entry =
    {
      e_host = name;
      e_incarnation = 1;
      e_heartbeat = 0;
      e_status = Member;
      e_replicas = [];
      e_cindex = 0;
      e_span = Span.none;
    }
  in
  Hashtbl.replace t.g_table name
    { p_entry = entry; p_last_heard = Clock.now t.g_clock; p_liveness = Alive };
  Sim_net.register_handler net id (fun ~src payload -> handle t ~src payload);
  t

let introduce a b =
  merge a (self b).p_entry;
  merge b (self a).p_entry

let bump_self t ?span ?status ?replicas ?cindex ~label () =
  let ps = self t in
  let e = ps.p_entry in
  let span =
    match span with
    | Some s -> s
    | None -> e.e_span
  in
  ps.p_entry <-
    {
      e with
      e_heartbeat = e.e_heartbeat + 1;
      e_status = Option.value status ~default:e.e_status;
      e_replicas = Option.value replicas ~default:e.e_replicas;
      (* The control index is a high-water mark: it only moves up, even
         if the caller hands us something stale. *)
      e_cindex = max e.e_cindex (Option.value cindex ~default:e.e_cindex);
      e_span = span;
    };
  ps.p_last_heard <- now t;
  ignore label

let set_replicas t ?(label = "member:update") ?cindex replicas =
  let replicas = List.sort_uniq compare replicas in
  let span = Span.start (spans t) ~host:t.g_host ~tick:(now t) label in
  bump_self t ~span ~replicas ?cindex ~label ();
  t.g_peers_version <- t.g_peers_version + 1;
  Metrics.incr (metrics t) "gossip.deltas";
  Log.info (fun m ->
      m "%s: membership delta %s (%d replicas)" t.g_host label
        (List.length replicas))

let leave t =
  let span = Span.start (spans t) ~host:t.g_host ~tick:(now t) "member:leave" in
  bump_self t ~span ~status:Left ~label:"member:leave" ();
  t.g_peers_version <- t.g_peers_version + 1;
  Metrics.incr (metrics t) "gossip.deltas"

let pick_partner t =
  let candidates =
    Hashtbl.fold
      (fun name ps acc ->
        if String.equal name t.g_host || ps.p_entry.e_status = Left then acc
        else ps :: acc)
      t.g_table []
    (* Hashtbl.fold order is unspecified; sort so partner choice depends
       only on the seeded PRNG. *)
    |> List.sort (fun a b -> String.compare a.p_entry.e_host b.p_entry.e_host)
  in
  if candidates = [] then None
  else
    let probe_all =
      t.g_config.dead_probe_one_in > 0
      && Random.State.int t.g_rng t.g_config.dead_probe_one_in = 0
    in
    let pool =
      if probe_all then candidates
      else
        match List.filter (fun ps -> ps.p_liveness <> Dead) candidates with
        | [] -> candidates
        | live -> live
    in
    Some (List.nth pool (Random.State.int t.g_rng (List.length pool)))

(* When can the next tick possibly do anything?  Either the round
   boundary, or a peer silently crossing a liveness threshold.  Verdict
   thresholds are exact ticks ([p_last_heard + period·missed]), and
   [p_last_heard] only moves via datagrams — which reset [g_next_due] to
   now — so a tick skipped while [now < g_next_due] is provably the
   no-op it would have been: no round due, no transition to record. *)
let compute_next_due t =
  let horizon = ref t.g_next_round in
  let cfg = t.g_config in
  Hashtbl.iter
    (fun name ps ->
      if (not (String.equal name t.g_host)) && ps.p_entry.e_status = Member then
        match ps.p_liveness with
        | Alive ->
            horizon :=
              min !horizon (ps.p_last_heard + (cfg.period * cfg.suspect_missed))
        | Suspect ->
            horizon :=
              min !horizon (ps.p_last_heard + (cfg.period * cfg.dead_missed))
        | Dead -> ())
    t.g_table;
  t.g_next_due <- !horizon

let next_due t = t.g_next_due

let peers_version t = t.g_peers_version

let tick t =
  refresh_liveness t;
  let rounds =
    if now t < t.g_next_round then 0
    else begin
      t.g_next_round <- now t + t.g_config.period;
      bump_self t ~label:"heartbeat" ();
      Metrics.incr (metrics t) "gossip.rounds";
      (match pick_partner t with
      | None -> ()
      | Some partner ->
          Metrics.incr (metrics t) "gossip.syn_sent";
          send t ~dst:partner.p_entry.e_host
            (Gossip_syn { g_from = t.g_host; g_digest = digest t }));
      1
    end
  in
  compute_next_due t;
  rounds

let liveness t name =
  if String.equal name t.g_host then Alive
  else
    match Hashtbl.find_opt t.g_table name with
    | None -> Alive
    | Some ps -> verdict t ps

let membership t =
  Hashtbl.fold (fun _ ps acc -> ps.p_entry :: acc) t.g_table []
  |> List.sort (fun a b -> String.compare a.e_host b.e_host)

let view t =
  List.map
    (fun e -> (e.e_host, e.e_incarnation, e.e_status, e.e_replicas))
    (membership t)

(* The highest control-plane committed index any entry in the table
   vouches for.  Not per-owner: committed state is global, so the best
   evidence any neighbour carries bounds how stale our control view can
   be. *)
let control_index t =
  Hashtbl.fold (fun _ ps acc -> max acc ps.p_entry.e_cindex) t.g_table 0

let replica_peers t ~alloc ~vol =
  Hashtbl.fold
    (fun _ ps acc ->
      if ps.p_entry.e_status <> Member then acc
      else
        List.fold_left
          (fun acc (a, v, r) ->
            if a = alloc && v = vol then (r, ps.p_entry.e_host) :: acc
            else acc)
          acc ps.p_entry.e_replicas)
    t.g_table []
  |> List.sort compare
