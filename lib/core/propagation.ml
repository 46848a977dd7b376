let log_src = Logs.Src.create "ficus.propagation" ~doc:"Ficus update propagation daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Tag every message with the host so the shared {!Obs.reporter} can
   attribute interleaved multi-host logs. *)
let log_tags host = Logs.Tag.add Obs.host_tag host Logs.Tag.empty


type t = {
  nvc : New_version_cache.t;
  clock : Clock.t;
  host : string;
  connect : Remote.connector;
  local_replica : Ids.volume_ref -> Physical.t option;
  liveness : string -> Gossip.liveness;
  delta : bool;
  delay : int;
  max_attempts : int;
  backoff_base : int;
  backoff_max : int;
  deadline : int;
  rng : Random.State.t;
  counters : Counters.t;
  obs : Obs.t;
}

let create ?(delay = 0) ?(max_attempts = 5) ?(backoff_base = 2) ?(backoff_max = 64)
    ?(deadline = 500) ?seed ?(obs = Obs.default) ?(delta = true)
    ?(liveness = fun _ -> Gossip.Alive) ~clock ~host ~connect ~local_replica () =
  if backoff_base < 0 || backoff_max < 0 || deadline < 0 then
    invalid_arg "Propagation.create";
  let seed = match seed with Some s -> s | None -> Hashtbl.hash host in
  {
    nvc = New_version_cache.create ();
    clock;
    host;
    connect;
    local_replica;
    liveness;
    delta;
    delay;
    max_attempts;
    backoff_base;
    backoff_max;
    deadline;
    rng = Random.State.make [| seed |];
    counters = Counters.create ();
    obs;
  }

(* Exponential backoff with jitter: after the [n]th failure wait
   [base * 2^(n-1)] ticks (capped) plus up to that much again of
   jitter, so retries from many hosts decorrelate instead of hammering
   a recovering origin in lockstep. *)
let backoff t attempts =
  let shift = min (max 0 (attempts - 1)) 16 in
  let base = min t.backoff_max (t.backoff_base * (1 lsl shift)) in
  let jitter = if base > 1 then Random.State.int t.rng base else 0 in
  base + jitter

let ( let* ) = Result.bind

(* Per-daemon private counter plus the shared cluster-wide registry, so
   propagation activity shows up in Cluster.metrics_snapshot. *)
let count t key = Obs.count t.obs t.counters key
let count_n t key n = Obs.count ~n t.obs t.counters key

let on_notify t (e : Notify.event) =
  match t.local_replica e.Notify.vref with
  | None -> ()
  | Some phys ->
    (* Our own updates come back via the multicast; ignore them. *)
    if e.Notify.origin_rid <> Physical.rid phys then begin
      let now = Clock.now t.clock in
      Span.event t.obs.Obs.spans e.Notify.span ~host:t.host ~tick:now "nvc:note";
      Metrics.incr t.obs.Obs.metrics "notify.received";
      if New_version_cache.note t.nvc e ~now then count t "prop.nvc_deduped"
    end

(* Record one delta-fetch outcome in the counters ("prop.bytes" now
   covers every byte the pull put on the wire: file bodies, directory
   fetches, chunk maps and negotiation requests alike). *)
let count_fetch t (stats : Delta.stats) =
  count_n t "prop.bytes" stats.Delta.wire_bytes;
  if stats.Delta.saved_bytes > 0 then
    count_n t "prop.bytes_saved" stats.Delta.saved_bytes;
  if stats.Delta.chunks_hit > 0 then count_n t "prop.chunks_hit" stats.Delta.chunks_hit;
  if stats.Delta.chunks_miss > 0 then
    count_n t "prop.chunks_miss" stats.Delta.chunks_miss;
  match stats.Delta.mode with
  | Delta.Delta -> count t "prop.pull.delta"
  | Delta.Fallback -> count t "prop.delta_fallback"
  | Delta.Whole -> ()

let pull t phys (e : New_version_cache.entry) =
  match e.New_version_cache.kind with
  | Aux_attrs.Freg
    when (not (Version_vector.equal e.New_version_cache.vv Version_vector.empty))
         && (match Physical.get_version phys e.New_version_cache.fidpath with
             | Ok lvi ->
               lvi.Physical.vi_stored
               && Version_vector.dominates lvi.Physical.vi_vv e.New_version_cache.vv
             | Error _ -> false) ->
    (* The notification carried the origin's version vector and our local
       history already dominates it: the pull is provably redundant —
       drop it without an RPC. *)
    count t "prop.skipped_dominated";
    Span.event t.obs.Obs.spans e.New_version_cache.span ~host:t.host
      ~tick:(Clock.now t.clock) "prop:skip-dominated";
    Ok []
  | _ ->
  let* remote_root =
    t.connect ~host:e.New_version_cache.origin_host ~vref:e.New_version_cache.vref
      ~rid:e.New_version_cache.origin_rid
  in
  match e.New_version_cache.kind with
  | Aux_attrs.Freg ->
    let* outcome, stats =
      if t.delta then
        Delta.fetch_file ~local:phys ~remote_root e.New_version_cache.fidpath
      else
        (* Whole-copy mode: the measurement baseline for the DELTA
           experiment, and an escape hatch if chunking misbehaves. *)
        let* vi, data, wire =
          Remote.fetch_file_sized ~obs:t.obs remote_root e.New_version_cache.fidpath
        in
        Ok
          ( Delta.Data (vi, data),
            {
              Delta.mode = Delta.Whole;
              wire_bytes = wire;
              saved_bytes = 0;
              chunks_hit = 0;
              chunks_miss = 0;
            } )
    in
    count_fetch t stats;
    (match outcome with
     | Delta.Up_to_date _ ->
       (* A header-sized answer: the advertised version was already ours
          (stale notification, or raced with reconciliation). *)
       count t "prop.uptodate_header";
       Ok []
     | Delta.Data (vi, data) ->
       (* Prefer the span carried by the notification; fall back to the
          one stored in the origin's aux attributes (a reconciled hint). *)
       let span =
         if e.New_version_cache.span <> 0 then e.New_version_cache.span
         else vi.Physical.vi_span
       in
       Span.event t.obs.Obs.spans span ~host:t.host ~tick:(Clock.now t.clock)
         (if stats.Delta.mode = Delta.Delta then "prop:pull-delta" else "prop:pull");
       let ctx =
         Span.make_ctx ~spans:t.obs.Obs.spans ~id:span ~host:t.host
           ~now:(fun () -> Clock.now t.clock)
       in
       let* outcome =
         Span.with_ctx ctx @@ fun () ->
         Physical.install_file ~span ~via:"prop" phys e.New_version_cache.fidpath
           ~vv:vi.Physical.vi_vv ~uid:vi.Physical.vi_uid ~data
           ~origin_rid:e.New_version_cache.origin_rid
       in
       count t "prop.pull.file";
       (match outcome with
        | Physical.Conflict _ -> count t "prop.conflicts"
        | Physical.Installed | Physical.Up_to_date -> ());
       Ok [])
  | Aux_attrs.Fdir | Aux_attrs.Fgraft ->
    let* remote_fdir, dir_wire =
      Remote.fetch_dir_sized ~obs:t.obs remote_root e.New_version_cache.fidpath
    in
    let* result =
      Physical.merge_dir phys e.New_version_cache.fidpath
        ~remote_rid:e.New_version_cache.origin_rid remote_fdir
    in
    count t "prop.pull.dir";
    count_n t "prop.bytes" dir_wire;
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
      let expired =
        t.deadline > 0 && now - e.New_version_cache.queued_at >= t.deadline
      in
      if expired then begin
        count t "prop.abandoned";
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
        count t "prop.rpcs_skipped_dead";
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
             if New_version_cache.note t.nvc ev ~now then count t "prop.nvc_deduped")
           followups
       | Error err ->
         e.New_version_cache.attempts <- e.New_version_cache.attempts + 1;
         let now = Clock.now t.clock in
         let expired =
           t.deadline > 0 && now - e.New_version_cache.queued_at >= t.deadline
         in
         if e.New_version_cache.attempts < t.max_attempts && not expired then begin
           (* Back off only on network failure; other errors are usually
              ordering (a parent directory still being pulled) and want
              an immediate retry in the same propagation pass. *)
           let wait =
             match err with
             | Errno.EUNREACHABLE -> backoff t e.New_version_cache.attempts
             | _ -> 0
           in
           e.New_version_cache.not_before <- now + wait;
           count t "prop.retries";
           count_n t "prop.backoff_ticks" wait;
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
           count t "prop.abandoned"
         end)
  in
  List.iter handle ready;
  !attempted

let pending t = New_version_cache.size t.nvc
let cache t = t.nvc
let counters t = t.counters
