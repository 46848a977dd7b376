let log_src = Logs.Src.create "ficus.propagation" ~doc:"Ficus update propagation daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Tag every message with the host so a reporter can
   attribute interleaved multi-host logs. *)
let log_tags host = Logs.Tag.add Obs.host_tag host Logs.Tag.empty


type t = {
  nvc : New_version_cache.t;
  clock : Clock.t;
  host : string;
  connect : Remote.connector;
  local_replica : Ids.volume_ref -> Physical.t option;
  liveness : string -> Gossip.liveness;
  delay : int;
  rng : Random.State.t;
  counters : Counters.t;
  obs : Obs.t;
}

(* The retry budget of one pull: at most [max_attempts] tries, none
   after the entry is [deadline] ticks old. *)
let max_attempts = 5
let deadline = 500

let create ~delay ~obs ~liveness ~clock ~host ~connect ~local_replica () =
  {
    nvc = New_version_cache.create ();
    clock;
    host;
    connect;
    local_replica;
    liveness;
    delay;
    rng = Random.State.make [| Hashtbl.hash host |];
    counters = Obs.counters obs;
    obs;
  }

(* Exponential backoff with jitter: after the [n]th failure wait
   [2^n] ticks (capped at 64) plus up to that much again of jitter, so
   retries from many hosts decorrelate instead of hammering a
   recovering origin in lockstep. *)
let backoff t attempts =
  let shift = min (max 0 (attempts - 1)) 16 in
  let base = min 64 (2 lsl shift) in
  let jitter = if base > 1 then Random.State.int t.rng base else 0 in
  base + jitter

let ( let* ) = Result.bind

let on_notify t (e : Notify.event) =
  match t.local_replica e.Notify.vref with
  | None -> ()
  | Some phys ->
    (* Our own updates come back via the multicast; ignore them. *)
    if e.Notify.origin_rid <> Physical.rid phys then begin
      let now = Clock.now t.clock in
      Span.event t.obs.Obs.spans e.Notify.span ~host:t.host ~tick:now "nvc:note";
      Metrics.incr t.obs.Obs.metrics "notify.received";
      if New_version_cache.note t.nvc e ~now then
        Counters.incr t.counters "prop.nvc_deduped"
    end

(* Record one delta-fetch outcome in the counters ("prop.bytes" now
   covers every byte the pull put on the wire: file bodies, directory
   fetches, chunk maps and negotiation requests alike). *)
let count_fetch t (stats : Delta.stats) =
  let add = Counters.add t.counters in
  add "prop.bytes" stats.Delta.wire_bytes;
  add "prop.bytes_saved" stats.Delta.saved_bytes;
  add "prop.chunks_hit" stats.Delta.chunks_hit;
  add "prop.chunks_miss" stats.Delta.chunks_miss;
  match stats.Delta.mode with
  | Delta.Delta -> Counters.incr t.counters "prop.pull.delta"
  | Delta.Fallback -> Counters.incr t.counters "prop.delta_fallback"
  | Delta.Whole -> ()

let pull t phys (e : New_version_cache.entry) =
  let connect () =
    t.connect ~host:e.New_version_cache.origin_host ~vref:e.New_version_cache.vref
      ~rid:e.New_version_cache.origin_rid
  in
  match e.New_version_cache.kind with
  | Aux_attrs.Freg ->
    (* An empty vector is a materialization follow-up: nothing to
       compare against, so the pull always travels. *)
    let remote_vv =
      if Version_vector.equal e.New_version_cache.vv Version_vector.empty then None
      else Some e.New_version_cache.vv
    in
    let* pull =
      Delta.pull_file ~span:e.New_version_cache.span ~detail:true
        ~via:"prop" ~local:phys ~connect ~origin_rid:e.New_version_cache.origin_rid
        ?remote_vv e.New_version_cache.fidpath
    in
    (match pull with
     | Delta.Current ->
       (* The notification's version is provably ours already: dropped
          without an RPC. *)
       Counters.incr t.counters "prop.skipped_dominated";
       Span.event t.obs.Obs.spans e.New_version_cache.span ~host:t.host
         ~tick:(Clock.now t.clock) "prop:skip-dominated";
       Ok []
     | Delta.Fetched (stats, installed) ->
       count_fetch t stats;
       let* installed = installed in
       (match installed with
        | None ->
          (* A header-sized answer: the advertised version was already
             ours (stale notification, or raced with reconciliation). *)
          Counters.incr t.counters "prop.uptodate_header"
        | Some outcome ->
          Counters.incr t.counters "prop.pull.file";
          (match outcome with
           | Physical.Conflict _ -> Counters.incr t.counters "prop.conflicts"
           | Physical.Installed | Physical.Up_to_date -> ()));
       Ok [])
  | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
    let* remote_root = connect () in
    let* result, dir_wire =
      Delta.pull_dir ~local:phys ~remote_root ~remote_rid:e.New_version_cache.origin_rid
        e.New_version_cache.fidpath
    in
    Counters.incr t.counters "prop.pull.dir";
    Counters.add t.counters "prop.bytes" dir_wire;
    (* Entries the merge materialized need their own contents pulled. *)
    let followups =
      List.filter_map
        (fun action ->
          match action with
          | Fdir.Materialize entry ->
            Some
              {
                Notify.vref = e.New_version_cache.vref;
                fidpath = e.New_version_cache.fidpath @ [ entry.Fdir.fid ];
                fid = entry.Fdir.fid;
                kind = entry.Fdir.kind;
                origin_rid = e.New_version_cache.origin_rid;
                origin_host = e.New_version_cache.origin_host;
                span = e.New_version_cache.span;
                vv = Version_vector.empty;
              }
          | Fdir.Unmaterialize _ | Fdir.Expire _ -> None)
        result.Fdir.actions
    in
    Ok followups

let run_once t =
  let now = Clock.now t.clock in
  let ready = New_version_cache.take_ready t.nvc ~now ~min_age:t.delay in
  let attempted = ref 0 in
  let handle e =
    match t.local_replica e.New_version_cache.vref with
    | None -> ()
    | Some _
      when t.liveness e.New_version_cache.origin_host <> Gossip.Alive ->
      (* The failure detector says the origin is doubtful: don't burn an
         RPC (and its retry/backoff budget) on it.  The entry sleeps and
         keeps its attempts; if the origin never refutes the suspicion,
         the deadline below abandons the pull to reconciliation — the
         detector is an optimization, never a correctness gate. *)
      let now = Clock.now t.clock in
      let expired = now - e.New_version_cache.queued_at >= deadline in
      if expired then begin
        Counters.incr t.counters "prop.abandoned";
        Log.info (fun m ->
            m ~tags:(log_tags t.host)
              "%s abandoning pull of %s: origin %s still %s at deadline"
              t.host
              (Ids.fidpath_to_string e.New_version_cache.fidpath)
              e.New_version_cache.origin_host
              (Gossip.liveness_to_string
                 (t.liveness e.New_version_cache.origin_host)))
      end
      else begin
        Counters.incr t.counters "prop.rpcs_skipped_dead";
        e.New_version_cache.not_before <-
          now + backoff t (e.New_version_cache.attempts + 1);
        New_version_cache.requeue t.nvc e
      end
    | Some phys ->
      incr attempted;
      (match pull t phys e with
       | Ok followups ->
         Log.debug (fun m ->
             m ~tags:(log_tags t.host) "%s pulled %s from %s" t.host
               (Ids.fidpath_to_string e.New_version_cache.fidpath)
               e.New_version_cache.origin_host);
         List.iter
           (fun ev ->
             if New_version_cache.note t.nvc ev ~now then
               Counters.incr t.counters "prop.nvc_deduped")
           followups
       | Error err ->
         e.New_version_cache.attempts <- e.New_version_cache.attempts + 1;
         let now = Clock.now t.clock in
         let expired = now - e.New_version_cache.queued_at >= deadline in
         if e.New_version_cache.attempts < max_attempts && not expired then begin
           (* Back off only on network failure; other errors are usually
              ordering (a parent directory still being pulled) and want
              an immediate retry in the same propagation pass. *)
           let wait =
             match err with
             | Errno.EUNREACHABLE -> backoff t e.New_version_cache.attempts
             | _ -> 0
           in
           e.New_version_cache.not_before <- now + wait;
           Counters.incr t.counters "prop.retries";
           Counters.add t.counters "prop.backoff_ticks" wait;
           New_version_cache.requeue t.nvc e
         end
         else begin
           (* Give up; the reconciliation protocol will converge it. *)
           Log.info (fun m ->
               m ~tags:(log_tags t.host) "%s abandoning pull of %s from %s after %d attempts (%s%s)" t.host
                 (Ids.fidpath_to_string e.New_version_cache.fidpath)
                 e.New_version_cache.origin_host e.New_version_cache.attempts
                 (Errno.to_string err)
                 (if expired then ", deadline passed" else ""));
           Counters.incr t.counters "prop.abandoned"
         end)
  in
  List.iter handle ready;
  !attempted

let pending t = New_version_cache.size t.nvc
let cache t = t.nvc
let counters t = t.counters
