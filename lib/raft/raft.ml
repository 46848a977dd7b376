(* Deterministic Raft over Sim_net datagrams.  See raft.mli for the
   model; the implementation follows the paper (Ongaro & Ousterhout
   2014, Figure 2) with the usual engineering additions: a leader no-op
   entry on election, conflict-hint back-off for AppendEntries, and
   snapshot-based log compaction.  All randomness comes from a seeded
   per-member PRNG and all time from the simulated clock, so a given
   (seed, schedule) replays identically. *)

let src = Logs.Src.create "raft" ~doc:"Raft consensus"

module Log = (val Logs.src_log src : Logs.LOG)

type role = Follower | Candidate | Leader

type entry = { e_term : int; e_index : int; e_cmd : string; e_span : int }

type config = {
  heartbeat : int;
  election_min : int;
  election_max : int;
  snapshot_threshold : int;
}

let default_config =
  { heartbeat = 4; election_min = 12; election_max = 24; snapshot_threshold = 64 }

type persist = { p_save : string -> unit; p_load : unit -> string option }

type t = {
  r_host : string;
  r_id : Sim_net.host_id;
  r_net : Sim_net.t;
  r_clock : Clock.t;
  r_obs : Obs.t;
  r_config : config;
  r_rng : Random.State.t;
  r_peers : string list;  (* the static member list, self included *)
  r_apply : index:int -> string -> unit;
  r_snapshot_fn : unit -> string;
  r_restore : string -> unit;
  r_persist : persist;
  (* Hard state: survives crashes via [r_persist]. *)
  mutable r_term : int;
  mutable r_voted_for : string option;
  mutable r_log : entry list;  (* post-snapshot suffix, ascending index *)
  mutable r_snap_index : int;
  mutable r_snap_term : int;
  mutable r_snap_data : string;
  (* Volatile state. *)
  mutable r_role : role;
  mutable r_leader : string option;
  mutable r_commit : int;
  mutable r_applied : int;
  mutable r_votes : string list;  (* granted this candidacy *)
  r_next : (string, int) Hashtbl.t;   (* leader: next index per follower *)
  r_match : (string, int) Hashtbl.t;  (* leader: highest replicated index *)
  mutable r_election_deadline : int;
  mutable r_next_heartbeat : int;
  mutable r_stopped : bool;
}

(* Wire protocol: five asynchronous datagram kinds.  Losses, duplicates
   and reordering from the fault layer are all tolerated — stale terms
   are dropped, votes are counted once, appends are idempotent. *)

type Sim_net.payload +=
  | Raft_vote_req of {
      v_term : int;
      v_from : string;
      v_last_index : int;
      v_last_term : int;
    }
  | Raft_vote_rsp of { v_term : int; v_from : string; v_granted : bool }
  | Raft_append of {
      a_term : int;
      a_from : string;
      a_prev_index : int;
      a_prev_term : int;
      a_entries : entry list;
      a_commit : int;
    }
  | Raft_append_rsp of {
      a_term : int;
      a_from : string;
      a_ok : bool;
      a_match : int;
          (* on success the highest index known replicated; on failure a
             back-off hint: the follower's best guess at where its log
             still agrees *)
    }
  | Raft_snap of {
      s_term : int;
      s_from : string;
      s_index : int;
      s_last_term : int;
      s_data : string;
    }
  | Raft_snap_rsp of { s_term : int; s_from : string; s_match : int }

let now t = Clock.now t.r_clock
let metrics t = t.r_obs.Obs.metrics
let spans t = t.r_obs.Obs.spans

let host t = t.r_host
let role t = t.r_role
let term t = t.r_term
let leader_hint t = t.r_leader
let commit_index t = t.r_commit
let snapshot_index t = t.r_snap_index

let majority t = (List.length t.r_peers / 2) + 1
let others t = List.filter (fun p -> not (String.equal p t.r_host)) t.r_peers

let last_index t =
  let rec go = function
    | [] -> t.r_snap_index
    | [ e ] -> e.e_index
    | _ :: rest -> go rest
  in
  go t.r_log

let term_at t i =
  if i = t.r_snap_index then Some t.r_snap_term
  else if i = 0 then Some 0
  else
    List.find_opt (fun e -> e.e_index = i) t.r_log
    |> Option.map (fun e -> e.e_term)

let last_term t = Option.value (term_at t (last_index t)) ~default:0

let log_view t = List.map (fun e -> (e.e_index, e.e_term)) t.r_log

(* ------------------------------------------------------------------ *)
(* Persistence: term, vote, snapshot and log encoded into one string,
   written through the caller's closure before any message that depends
   on them is sent.  Length-prefixed strings keep opaque commands (and
   the snapshot blob) safe to embed. *)

let encode_hard t =
  let b = Buffer.create 256 in
  let str s = Printf.bprintf b "%d:%s" (String.length s) s in
  Printf.bprintf b "raft1 %d " t.r_term;
  str (Option.value t.r_voted_for ~default:"");
  Printf.bprintf b " %d %d " t.r_snap_index t.r_snap_term;
  str t.r_snap_data;
  Printf.bprintf b " %d" (List.length t.r_log);
  List.iter
    (fun e ->
      Printf.bprintf b " %d %d %d " e.e_term e.e_index e.e_span;
      str e.e_cmd)
    t.r_log;
  Buffer.contents b

let decode_hard s =
  let pos = ref 0 in
  let fail () = failwith "Raft: corrupt persisted state" in
  let expect c =
    if !pos >= String.length s || s.[!pos] <> c then fail ();
    incr pos
  in
  let int () =
    let start = !pos in
    if !pos < String.length s && s.[!pos] = '-' then incr pos;
    while !pos < String.length s && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail ();
    int_of_string (String.sub s start (!pos - start))
  in
  let str () =
    let n = int () in
    expect ':';
    if n < 0 || !pos + n > String.length s then fail ();
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  if String.length s < 6 || not (String.equal (String.sub s 0 6) "raft1 ") then
    fail ();
  pos := 6;
  let term = int () in
  expect ' ';
  let voted = str () in
  expect ' ';
  let snap_index = int () in
  expect ' ';
  let snap_term = int () in
  expect ' ';
  let snap_data = str () in
  expect ' ';
  let n = int () in
  let rec entries k acc =
    if k = 0 then List.rev acc
    else begin
      expect ' ';
      let e_term = int () in
      expect ' ';
      let e_index = int () in
      expect ' ';
      let e_span = int () in
      expect ' ';
      let e_cmd = str () in
      entries (k - 1) ({ e_term; e_index; e_cmd; e_span } :: acc)
    end
  in
  let log = entries n [] in
  ( term,
    (if String.equal voted "" then None else Some voted),
    snap_index,
    snap_term,
    snap_data,
    log )

let persist t = t.r_persist.p_save (encode_hard t)

let load_hard t s =
  let term, voted, snap_index, snap_term, snap_data, log = decode_hard s in
  t.r_term <- term;
  t.r_voted_for <- voted;
  t.r_snap_index <- snap_index;
  t.r_snap_term <- snap_term;
  t.r_snap_data <- snap_data;
  t.r_log <- log

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)

let find_id t name =
  List.find_opt
    (fun id -> String.equal (Sim_net.host_name t.r_net id) name)
    (Sim_net.hosts t.r_net)

let send t ~dst payload =
  match find_id t dst with
  | Some id -> Sim_net.send t.r_net ~src:t.r_id ~dst:id payload
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Role transitions                                                    *)

let reset_deadline t =
  let cfg = t.r_config in
  let spread = max 1 (cfg.election_max - cfg.election_min + 1) in
  t.r_election_deadline <- now t + cfg.election_min + Random.State.int t.r_rng spread

let become_follower t new_term =
  if new_term > t.r_term then begin
    t.r_term <- new_term;
    t.r_voted_for <- None
  end;
  if t.r_role <> Follower then
    Log.debug (fun m ->
        m "%s: stepping down to follower at term %d" t.r_host t.r_term);
  t.r_role <- Follower;
  t.r_votes <- [];
  reset_deadline t

(* When can the next tick act?  Followers/candidates: their election
   deadline.  Leaders: the next heartbeat round.  Datagram handlers run
   at delivery, not here, so ticking earlier is a guaranteed no-op. *)
let next_due t =
  if t.r_stopped then max_int
  else
    match t.r_role with
    | Leader -> t.r_next_heartbeat
    | Follower | Candidate -> t.r_election_deadline

(* ------------------------------------------------------------------ *)
(* Commit / apply / compact                                            *)

let maybe_compact t =
  let cfg = t.r_config in
  if cfg.snapshot_threshold > 0 && t.r_applied - t.r_snap_index >= cfg.snapshot_threshold
  then begin
    let data = t.r_snapshot_fn () in
    t.r_snap_term <- Option.value (term_at t t.r_applied) ~default:t.r_snap_term;
    t.r_snap_data <- data;
    t.r_log <- List.filter (fun e -> e.e_index > t.r_applied) t.r_log;
    t.r_snap_index <- t.r_applied;
    persist t;
    Metrics.incr (metrics t) "raft.snapshots";
    Log.debug (fun m ->
        m "%s: compacted log through index %d" t.r_host t.r_snap_index)
  end

let rec apply_committed t =
  if t.r_applied < t.r_commit then begin
    let i = t.r_applied + 1 in
    (match List.find_opt (fun e -> e.e_index = i) t.r_log with
    | Some e ->
      if not (String.equal e.e_cmd "") then begin
        t.r_apply ~index:i e.e_cmd;
        Metrics.incr (metrics t) "raft.commits";
        if e.e_span <> Span.none then
          Span.event (spans t) e.e_span ~host:t.r_host ~tick:(now t)
            "raft:commit"
      end
    | None ->
      (* Inside the snapshot prefix; the restore already covered it. *)
      ());
    t.r_applied <- i;
    apply_committed t
  end
  else maybe_compact t

(* Leader rule: advance commit to the largest majority-replicated index,
   but only if that entry is from the current term (the Figure 8
   restriction — earlier-term entries commit implicitly underneath). *)
let advance_commit t =
  let li = last_index t in
  let counted i =
    1
    + List.length
        (List.filter
           (fun p ->
             Option.value (Hashtbl.find_opt t.r_match p) ~default:0 >= i)
           (others t))
  in
  let rec scan i best =
    if i > li then best
    else if counted i >= majority t then scan (i + 1) (Some i)
    else best
  in
  match scan (t.r_commit + 1) None with
  | Some i when term_at t i = Some t.r_term ->
    t.r_commit <- i;
    apply_committed t
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Leader replication                                                  *)

let send_append t follower =
  let next =
    Option.value (Hashtbl.find_opt t.r_next follower)
      ~default:(last_index t + 1)
  in
  if next <= t.r_snap_index then begin
    (* Too far behind for the log we still hold: ship the snapshot. *)
    Metrics.incr (metrics t) "raft.snapshots_sent";
    send t ~dst:follower
      (Raft_snap
         {
           s_term = t.r_term;
           s_from = t.r_host;
           s_index = t.r_snap_index;
           s_last_term = t.r_snap_term;
           s_data = t.r_snap_data;
         })
  end
  else begin
    let prev = next - 1 in
    let prev_term = Option.value (term_at t prev) ~default:0 in
    let entries = List.filter (fun e -> e.e_index >= next) t.r_log in
    Metrics.incr (metrics t) "raft.appends_sent";
    send t ~dst:follower
      (Raft_append
         {
           a_term = t.r_term;
           a_from = t.r_host;
           a_prev_index = prev;
           a_prev_term = prev_term;
           a_entries = entries;
           a_commit = t.r_commit;
         })
  end

let send_round t = List.iter (send_append t) (others t)

let become_leader t =
  t.r_role <- Leader;
  t.r_leader <- Some t.r_host;
  Metrics.incr (metrics t) "raft.leader_changes";
  Log.info (fun m -> m "%s: elected leader at term %d" t.r_host t.r_term);
  Hashtbl.reset t.r_next;
  Hashtbl.reset t.r_match;
  List.iter
    (fun p ->
      Hashtbl.replace t.r_next p (last_index t + 1);
      Hashtbl.replace t.r_match p 0)
    (others t);
  (* A no-op entry at the new term lets earlier-term entries commit
     promptly (a leader may only count replicas for current-term
     entries). *)
  let noop =
    {
      e_term = t.r_term;
      e_index = last_index t + 1;
      e_cmd = "";
      e_span = Span.none;
    }
  in
  t.r_log <- t.r_log @ [ noop ];
  persist t;
  t.r_next_heartbeat <- now t + t.r_config.heartbeat;
  if others t = [] then advance_commit t else send_round t

let maybe_win t =
  if t.r_role = Candidate && List.length t.r_votes >= majority t then
    become_leader t

let start_election t =
  t.r_term <- t.r_term + 1;
  t.r_role <- Candidate;
  t.r_voted_for <- Some t.r_host;
  t.r_votes <- [ t.r_host ];
  t.r_leader <- None;
  reset_deadline t;
  persist t;
  Metrics.incr (metrics t) "raft.elections";
  Log.debug (fun m -> m "%s: starting election for term %d" t.r_host t.r_term);
  List.iter
    (fun p ->
      send t ~dst:p
        (Raft_vote_req
           {
             v_term = t.r_term;
             v_from = t.r_host;
             v_last_index = last_index t;
             v_last_term = last_term t;
           }))
    (others t);
  maybe_win t

(* ------------------------------------------------------------------ *)
(* Message handling (at datagram delivery)                             *)

(* Idempotent truncate-and-append: entries already present with the
   right term are skipped; the first term conflict truncates the rest of
   the log (it is from a deposed leader and uncommitted by the log
   matching property). *)
let rec merge_entries t = function
  | [] -> ()
  | e :: rest -> (
    match term_at t e.e_index with
    | Some tm when tm = e.e_term -> merge_entries t rest
    | Some _ ->
      t.r_log <-
        List.filter (fun x -> x.e_index < e.e_index) t.r_log @ (e :: rest)
    | None -> t.r_log <- t.r_log @ (e :: rest))

let handle_vote_req t ~v_term ~v_from ~v_last_index ~v_last_term =
  if v_term > t.r_term then become_follower t v_term;
  let granted =
    v_term = t.r_term
    && (match t.r_voted_for with
       | None -> true
       | Some v -> String.equal v v_from)
    && compare (v_last_term, v_last_index) (last_term t, last_index t) >= 0
  in
  if granted then begin
    t.r_voted_for <- Some v_from;
    (* Granting a vote defers our own candidacy. *)
    reset_deadline t
  end;
  persist t;
  send t ~dst:v_from
    (Raft_vote_rsp { v_term = t.r_term; v_from = t.r_host; v_granted = granted })

let handle_vote_rsp t ~v_term ~v_from ~v_granted =
  if v_term > t.r_term then begin
    become_follower t v_term;
    persist t
  end
  else if t.r_role = Candidate && v_term = t.r_term && v_granted then begin
    if not (List.exists (String.equal v_from) t.r_votes) then
      t.r_votes <- v_from :: t.r_votes;
    maybe_win t
  end

let handle_append t ~a_term ~a_from ~a_prev_index ~a_prev_term ~a_entries
    ~a_commit =
  if a_term < t.r_term then
    send t ~dst:a_from
      (Raft_append_rsp
         { a_term = t.r_term; a_from = t.r_host; a_ok = false; a_match = 0 })
  else begin
    if a_term > t.r_term || t.r_role <> Follower then become_follower t a_term;
    t.r_leader <- Some a_from;
    reset_deadline t;
    (* Entries at or below our snapshot are already committed here;
       shift the consistency point up to the snapshot boundary. *)
    let prev, prev_term, entries =
      if a_prev_index < t.r_snap_index then
        ( t.r_snap_index,
          t.r_snap_term,
          List.filter (fun e -> e.e_index > t.r_snap_index) a_entries )
      else (a_prev_index, a_prev_term, a_entries)
    in
    match term_at t prev with
    | Some tm when tm = prev_term ->
      merge_entries t entries;
      let matched =
        List.fold_left (fun acc e -> max acc e.e_index) prev entries
      in
      persist t;
      if a_commit > t.r_commit then begin
        t.r_commit <- min a_commit (last_index t);
        apply_committed t
      end;
      send t ~dst:a_from
        (Raft_append_rsp
           { a_term = t.r_term; a_from = t.r_host; a_ok = true; a_match = matched })
    | _ ->
      (* Consistency check failed; hint where our log might still agree
         so the leader can back off in one round instead of one index
         per round. *)
      let hint =
        if prev > last_index t then last_index t
        else max t.r_snap_index (prev - 1)
      in
      persist t;
      send t ~dst:a_from
        (Raft_append_rsp
           { a_term = t.r_term; a_from = t.r_host; a_ok = false; a_match = hint })
  end

let handle_append_rsp t ~a_term ~a_from ~a_ok ~a_match =
  if a_term > t.r_term then begin
    become_follower t a_term;
    persist t
  end
  else if t.r_role = Leader && a_term = t.r_term then
    if a_ok then begin
      let old = Option.value (Hashtbl.find_opt t.r_match a_from) ~default:0 in
      let matched = max old a_match in
      Hashtbl.replace t.r_match a_from matched;
      Hashtbl.replace t.r_next a_from (matched + 1);
      advance_commit t;
      (* Still behind (e.g. it just installed a snapshot): keep feeding
         it without waiting a heartbeat. *)
      if matched < last_index t then send_append t a_from
    end
    else begin
      let next =
        Option.value (Hashtbl.find_opt t.r_next a_from)
          ~default:(last_index t + 1)
      in
      Hashtbl.replace t.r_next a_from (max 1 (min (next - 1) (a_match + 1)));
      send_append t a_from
    end

let handle_snap t ~s_term ~s_from ~s_index ~s_last_term ~s_data =
  if s_term < t.r_term then
    send t ~dst:s_from
      (Raft_snap_rsp { s_term = t.r_term; s_from = t.r_host; s_match = 0 })
  else begin
    if s_term > t.r_term || t.r_role <> Follower then become_follower t s_term;
    t.r_leader <- Some s_from;
    reset_deadline t;
    if s_index > t.r_commit then begin
      t.r_snap_index <- s_index;
      t.r_snap_term <- s_last_term;
      t.r_snap_data <- s_data;
      (* Keep a log suffix that agrees with the snapshot; otherwise the
         log is entirely superseded. *)
      (match term_at t s_index with
      | Some tm when tm = s_last_term ->
        t.r_log <- List.filter (fun e -> e.e_index > s_index) t.r_log
      | _ -> t.r_log <- []);
      t.r_restore s_data;
      t.r_applied <- s_index;
      t.r_commit <- s_index;
      Metrics.incr (metrics t) "raft.snapshot_installs"
    end;
    persist t;
    send t ~dst:s_from
      (Raft_snap_rsp
         { s_term = t.r_term; s_from = t.r_host; s_match = t.r_snap_index })
  end

let handle_snap_rsp t ~s_term ~s_from ~s_match =
  if s_term > t.r_term then begin
    become_follower t s_term;
    persist t
  end
  else if t.r_role = Leader && s_term = t.r_term then begin
    let old = Option.value (Hashtbl.find_opt t.r_match s_from) ~default:0 in
    let matched = max old s_match in
    Hashtbl.replace t.r_match s_from matched;
    Hashtbl.replace t.r_next s_from (matched + 1);
    advance_commit t;
    if matched < last_index t then send_append t s_from
  end

let handle t payload =
  if not t.r_stopped then
    match payload with
    | Raft_vote_req { v_term; v_from; v_last_index; v_last_term } ->
      handle_vote_req t ~v_term ~v_from ~v_last_index ~v_last_term
    | Raft_vote_rsp { v_term; v_from; v_granted } ->
      handle_vote_rsp t ~v_term ~v_from ~v_granted
    | Raft_append { a_term; a_from; a_prev_index; a_prev_term; a_entries; a_commit }
      ->
      handle_append t ~a_term ~a_from ~a_prev_index ~a_prev_term ~a_entries
        ~a_commit
    | Raft_append_rsp { a_term; a_from; a_ok; a_match } ->
      handle_append_rsp t ~a_term ~a_from ~a_ok ~a_match
    | Raft_snap { s_term; s_from; s_index; s_last_term; s_data } ->
      handle_snap t ~s_term ~s_from ~s_index ~s_last_term ~s_data
    | Raft_snap_rsp { s_term; s_from; s_match } ->
      handle_snap_rsp t ~s_term ~s_from ~s_match
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Public driving                                                      *)

let tick t =
  if not t.r_stopped then
    match t.r_role with
    | Leader ->
      if now t >= t.r_next_heartbeat then begin
        t.r_next_heartbeat <- now t + t.r_config.heartbeat;
        send_round t
      end
    | Follower | Candidate ->
      if now t >= t.r_election_deadline then start_election t

let submit t ?(span = Span.none) cmd =
  if t.r_stopped then Error None
  else
    match t.r_role with
    | Leader ->
      let idx = last_index t + 1 in
      let e = { e_term = t.r_term; e_index = idx; e_cmd = cmd; e_span = span } in
      t.r_log <- t.r_log @ [ e ];
      persist t;
      Metrics.incr (metrics t) "raft.submits";
      if span <> Span.none then
        Span.event (spans t) span ~host:t.r_host ~tick:(now t) "raft:append";
      if others t = [] then advance_commit t
      else begin
        (* Replicate eagerly instead of waiting out the heartbeat. *)
        t.r_next_heartbeat <- now t + t.r_config.heartbeat;
        send_round t
      end;
      Ok idx
    | Follower | Candidate -> Error t.r_leader

let crash_recover t =
  t.r_role <- Follower;
  t.r_leader <- None;
  t.r_votes <- [];
  Hashtbl.reset t.r_next;
  Hashtbl.reset t.r_match;
  (match t.r_persist.p_load () with
  | Some s -> load_hard t s
  | None ->
    (* The durable state vanished: model a wiped disk, back to blank. *)
    t.r_term <- 0;
    t.r_voted_for <- None;
    t.r_log <- [];
    t.r_snap_index <- 0;
    t.r_snap_term <- 0;
    t.r_snap_data <- "");
  (* Roll the state machine back to the snapshot; committed entries
     above it re-apply as the commit index re-advances. *)
  t.r_restore t.r_snap_data;
  t.r_applied <- t.r_snap_index;
  t.r_commit <- t.r_snap_index;
  reset_deadline t;
  Metrics.incr (metrics t) "raft.recoveries"

let stop t = t.r_stopped <- true

let create ~config ~seed ~persist ~obs ~net ~peers ~apply
    ~snapshot ~restore id =
  if config.heartbeat <= 0 || config.election_min <= 0
     || config.election_max < config.election_min
  then invalid_arg "Raft.create: bad config";
  let name = Sim_net.host_name net id in
  if not (List.exists (String.equal name) peers) then
    invalid_arg "Raft.create: host not in peers";
  let t =
    {
      r_host = name;
      r_id = id;
      r_net = net;
      r_clock = Sim_net.clock net;
      r_obs = obs;
      r_config = config;
      r_rng = Random.State.make [| seed; id |];
      r_peers = List.sort_uniq String.compare peers;
      r_apply = apply;
      r_snapshot_fn = snapshot;
      r_restore = restore;
      r_persist = persist;
      r_term = 0;
      r_voted_for = None;
      r_log = [];
      r_snap_index = 0;
      r_snap_term = 0;
      r_snap_data = "";
      r_role = Follower;
      r_leader = None;
      r_commit = 0;
      r_applied = 0;
      r_votes = [];
      r_next = Hashtbl.create 8;
      r_match = Hashtbl.create 8;
      r_election_deadline = 0;
      r_next_heartbeat = 0;
      r_stopped = false;
    }
  in
  (match persist.p_load () with
  | Some s ->
    load_hard t s;
    if not (String.equal t.r_snap_data "") then t.r_restore t.r_snap_data;
    t.r_applied <- t.r_snap_index;
    t.r_commit <- t.r_snap_index
  | None -> ());
  reset_deadline t;
  Sim_net.register_handler net id (fun ~src:_ payload -> handle t payload);
  t
