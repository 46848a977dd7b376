(* The health plane: SLO thresholds over live gauges, plus a per-daemon
   tick profiler.

   The convergence watchdog (lib/sim/cluster.ml) samples a handful of
   gauges on a period — oldest undominated update age per volume,
   per-replica staleness, journal flush backlog, gossip suspect count,
   raft leadership churn, propagation backlog — and feeds each sample
   through [observe].  This module owns the threshold semantics: each
   gauge has a [Degraded] and a [Stuck] limit, transitions are
   edge-triggered (an event fires only when a gauge escalates past a
   limit it was previously under, not on every breached sample), and a
   return to healthy re-arms the gauge so a later breach fires again.
   Events carry the breaching value, the limit, and a span id linking
   the symptom back to the concrete update that exhibits it. *)

type level = Degraded | Stuck

let level_name = function Degraded -> "degraded" | Stuck -> "stuck"
let level_rank = function Degraded -> 1 | Stuck -> 2

type slo = { degraded : int; stuck : int; confirm : int }
(* A gauge sample [v] is healthy below [degraded], Degraded at
   [degraded <= v < stuck], Stuck at [v >= stuck] — but a level is only
   *confirmed* (and its event raised) once it has held for [confirm]
   consecutive samples, the Prometheus "for:" idiom.  confirm = 1 fires
   on first breach; noisy sources (an epidemic failure detector will
   transiently suspect a healthy peer) set it higher. *)

let slo ?(confirm = 1) ~degraded ~stuck () =
  if degraded <= 0 || stuck < degraded || confirm < 1 then invalid_arg "Health.slo";
  { degraded; stuck; confirm }

type config = { period : int; slos : (string * slo) list }

(* Thresholds are in simulated ticks (ages/backlogs) or plain counts
   (suspects, churn).  Defaults are sized for the default daemon
   periods: propagation delay 10, reconcile period 50, gossip period 5 —
   an update older than 400 ticks has missed many daemon rounds. *)
let default_config =
  {
    period = 50;
    slos =
      [
        ("health.divergence_age", slo ~degraded:400 ~stuck:1200 ());
        ("health.staleness", slo ~degraded:400 ~stuck:1200 ());
        ("health.journal_backlog", slo ~degraded:64 ~stuck:512 ());
        ("health.gossip_suspects", slo ~confirm:2 ~degraded:1 ~stuck:4 ());
        ("health.raft_churn", slo ~degraded:2 ~stuck:6 ());
        ("health.prop_backlog", slo ~degraded:256 ~stuck:2048 ());
      ];
  }

let with_slo cfg gauge slo =
  { cfg with slos = (gauge, slo) :: List.remove_assoc gauge cfg.slos }

type event = {
  hv_tick : int;
  hv_level : level;
  hv_gauge : string;
  hv_value : int;
  hv_limit : int;
  hv_span : int; (* evidence: a span exhibiting the symptom; Span.none if n/a *)
  hv_detail : string;
}

(* Per-gauge alerting state: the last *confirmed* level (what events
   are edge-triggered against) plus the consecutive-breach streaks that
   implement the [confirm] hold. *)
type gstate = {
  mutable g_confirmed : level option;
  mutable g_deg_streak : int; (* consecutive samples at >= degraded *)
  mutable g_stuck_streak : int; (* consecutive samples at >= stuck *)
}

type t = {
  config : config;
  counters : Counters.t;
  state : (string, gstate) Hashtbl.t;
  mutable events : event list; (* newest first *)
}

let create ~metrics config =
  let counters = Counters.child (Metrics.counters metrics) in
  { config; counters; state = Hashtbl.create 8; events = [] }

let config t = t.config
let events t = List.rev t.events
let events_degraded t = Counters.get t.counters "health.events_degraded"
let events_stuck t = Counters.get t.counters "health.events_stuck"
let recoveries t = Counters.get t.counters "health.recoveries"

let gstate t gauge =
  match Hashtbl.find_opt t.state gauge with
  | Some g -> g
  | None ->
    let g = { g_confirmed = None; g_deg_streak = 0; g_stuck_streak = 0 } in
    Hashtbl.replace t.state gauge g;
    g

let current_level t gauge =
  Option.bind (Hashtbl.find_opt t.state gauge) (fun g -> g.g_confirmed)

let rank = function None -> 0 | Some l -> level_rank l

let observe t ~tick ~gauge ~value ~span ~detail =
  match List.assoc_opt gauge t.config.slos with
  | None -> () (* no SLO configured: the gauge is informational only *)
  | Some slo ->
    let g = gstate t gauge in
    g.g_deg_streak <- (if value >= slo.degraded then g.g_deg_streak + 1 else 0);
    g.g_stuck_streak <- (if value >= slo.stuck then g.g_stuck_streak + 1 else 0);
    let target =
      if g.g_stuck_streak >= slo.confirm then Some Stuck
      else if g.g_deg_streak >= slo.confirm then Some Degraded
      else None
    in
    if rank target > rank g.g_confirmed then begin
      let lv = Option.get target in
      let limit = match lv with Degraded -> slo.degraded | Stuck -> slo.stuck in
      g.g_confirmed <- target;
      Counters.incr t.counters ("health.events_" ^ level_name lv);
      t.events <-
        {
          hv_tick = tick;
          hv_level = lv;
          hv_gauge = gauge;
          hv_value = value;
          hv_limit = limit;
          hv_span = span;
          hv_detail = detail;
        }
        :: t.events
    end
    else if rank target < rank g.g_confirmed then begin
      (* Silent downgrade: a later re-escalation must re-fire, and a
         full return to healthy counts as a recovery. *)
      if target = None then Counters.incr t.counters "health.recoveries";
      g.g_confirmed <- target
    end

let pp_event ppf e =
  Format.fprintf ppf "[%6d] %-8s %s value=%d limit=%d span=%d %s" e.hv_tick
    (level_name e.hv_level) e.hv_gauge e.hv_value e.hv_limit e.hv_span e.hv_detail

(* ------------------------------------------------------------------ *)
(* Per-daemon tick profiler                                            *)

(* Attribution for "where do the simulator's cycles go": every daemon
   phase that [Cluster.tick_daemons] activates records how many host
   activations ran, how much work they did (pulls, recon installs,
   gossip rounds...), and the wall-clock self-time of the phase in
   microseconds.  Self-times go into power-of-two bucket histograms so
   the shape survives a million ticks without storing samples.

   The profiler is deliberately *outside* the metrics registry: the
   linear and indexed tick paths are held observably identical by a
   qcheck equivalence over cluster state + metrics, and wall-clock can
   never be part of that contract. *)
module Profile = struct
  type cell = {
    mutable p_ticks : int; (* phase activations recorded *)
    mutable p_activations : int; (* per-host daemon activations *)
    mutable p_work : int; (* daemon-reported work units *)
    mutable p_us : int; (* total self-time, microseconds *)
    buckets : (int, int) Hashtbl.t; (* log2(us+1) -> count *)
  }

  type t = { cells : (string, cell) Hashtbl.t }

  let create () = { cells = Hashtbl.create 8 }

  let cell t daemon =
    match Hashtbl.find_opt t.cells daemon with
    | Some c -> c
    | None ->
      let c = { p_ticks = 0; p_activations = 0; p_work = 0; p_us = 0; buckets = Hashtbl.create 8 } in
      Hashtbl.replace t.cells daemon c;
      c

  let bucket_of us =
    let rec log2 n acc = if n <= 0 then acc else log2 (n lsr 1) (acc + 1) in
    log2 us 0

  let record t ~daemon ~activations ~work ~us =
    let c = cell t daemon in
    c.p_ticks <- c.p_ticks + 1;
    c.p_activations <- c.p_activations + activations;
    c.p_work <- c.p_work + work;
    c.p_us <- c.p_us + us;
    let b = bucket_of us in
    Hashtbl.replace c.buckets b (1 + Option.value ~default:0 (Hashtbl.find_opt c.buckets b))

  type row = {
    pr_daemon : string;
    pr_ticks : int;
    pr_activations : int;
    pr_work : int;
    pr_us : int;
  }

  let rows t =
    Hashtbl.fold
      (fun daemon c acc ->
        {
          pr_daemon = daemon;
          pr_ticks = c.p_ticks;
          pr_activations = c.p_activations;
          pr_work = c.p_work;
          pr_us = c.p_us;
        }
        :: acc)
      t.cells []
    |> List.sort (fun a b ->
           (* top talkers first: self-time, then work, then activations *)
           match compare b.pr_us a.pr_us with
           | 0 -> (
             match compare b.pr_work a.pr_work with
             | 0 -> (
               match compare b.pr_activations a.pr_activations with
               | 0 -> compare a.pr_daemon b.pr_daemon
               | c -> c)
             | c -> c)
           | c -> c)

  let top t = match rows t with [] -> None | r :: _ -> Some r

  let us_histogram t daemon =
    match Hashtbl.find_opt t.cells daemon with
    | None -> []
    | Some c ->
      Hashtbl.fold (fun b n acc -> (b, n) :: acc) c.buckets [] |> List.sort compare

  let pp ppf t =
    Format.fprintf ppf "%-8s %10s %12s %10s %10s@." "daemon" "ticks" "activations" "work" "us";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-8s %10d %12d %10d %10d@." r.pr_daemon r.pr_ticks r.pr_activations
          r.pr_work r.pr_us)
      (rows t)
end
