(* A process-wide metrics registry: counters, gauges, and latency
   histograms over the *simulated* clock.

   Because time in this codebase is an integer tick counter, observed
   latencies are small exact integers; the histogram therefore keeps an
   exact value -> count table instead of fixed bucket boundaries, and
   the percentile export is the true nearest-rank percentile, not an
   interpolation.  (The paper's §1 forecasts a "performance monitoring"
   layer as the first use of stacking; this registry is the sink every
   instrumented layer reports into.)  The counter section is a plain
   {!Counters.t}: components count into views of it, so every count
   they keep also lands here. *)

type hist = {
  buckets : (int, int ref) Hashtbl.t; (* observed value -> occurrences *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type t = {
  counters : Counters.t;
  gauges : (string, int) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  { counters = Counters.create (); gauges = Hashtbl.create 16; hists = Hashtbl.create 16 }

let counters t = t.counters
let add t name n = Counters.add t.counters name n
let incr t name = Counters.incr t.counters name
let counter t name = Counters.get t.counters name

let gauge_set t name v = Hashtbl.replace t.gauges name v
let gauge t name = Option.value ~default:0 (Hashtbl.find_opt t.gauges name)

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = { buckets = Hashtbl.create 16; h_count = 0; h_sum = 0; h_max = 0 } in
    Hashtbl.replace t.hists name h;
    h

let observe t name v =
  let h = hist t name in
  (match Hashtbl.find_opt h.buckets v with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.replace h.buckets v (ref 1));
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

let hist_count t name =
  match Hashtbl.find_opt t.hists name with Some h -> h.h_count | None -> 0

let hist_sum t name =
  match Hashtbl.find_opt t.hists name with Some h -> h.h_sum | None -> 0

(* Nearest-rank percentile over the exact value table: the smallest
   observed value v such that at least ceil(p/100 * count) observations
   are <= v. *)
let percentile_of_hist h p =
  if h.h_count = 0 then None
  else begin
    let rank =
      let r = int_of_float (ceil (p *. float_of_int h.h_count /. 100.)) in
      max 1 (min h.h_count r)
    in
    let values =
      List.sort compare (Hashtbl.fold (fun v r acc -> (v, !r) :: acc) h.buckets [])
    in
    let rec walk seen = function
      | [] -> None
      | (v, n) :: tl -> if seen + n >= rank then Some v else walk (seen + n) tl
    in
    walk 0 values
  end

let percentile t name p =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h -> percentile_of_hist h p

let percentiles t name =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h when h.h_count = 0 -> None
  | Some h ->
    let q p = Option.get (percentile_of_hist h p) in
    Some (q 50., q 95., q 99.)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)

type hist_summary = {
  hs_name : string;
  hs_count : int;
  hs_sum : int;
  hs_max : int;
  hs_p50 : int;
  hs_p95 : int;
  hs_p99 : int;
}

type snapshot = {
  snap_counters : (string * int) list; (* sorted by name *)
  snap_gauges : (string * int) list;
  snap_hists : hist_summary list;
}

let snapshot t =
  let hists =
    Hashtbl.fold
      (fun name h acc ->
        if h.h_count = 0 then acc
        else
          let q p = Option.value ~default:0 (percentile_of_hist h p) in
          {
            hs_name = name;
            hs_count = h.h_count;
            hs_sum = h.h_sum;
            hs_max = h.h_max;
            hs_p50 = q 50.;
            hs_p95 = q 95.;
            hs_p99 = q 99.;
          }
          :: acc)
      t.hists []
  in
  {
    snap_counters = Counters.snapshot t.counters;
    snap_gauges = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.gauges []);
    snap_hists = List.sort (fun a b -> compare a.hs_name b.hs_name) hists;
  }

(* Line-oriented text rendering, served through the `.#ficus#stats`
   ctl-name.  One `kind name fields...` record per line so a remote
   client can parse it without a JSON library. *)
let render snap =
  let buf = Buffer.create 512 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "counter %s %d\n" k v))
    snap.snap_counters;
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "gauge %s %d\n" k v))
    snap.snap_gauges;
  List.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf "hist %s count=%d sum=%d max=%d p50=%d p95=%d p99=%d\n"
           h.hs_name h.hs_count h.hs_sum h.hs_max h.hs_p50 h.hs_p95 h.hs_p99))
    snap.snap_hists;
  Buffer.contents buf

let reset t =
  Counters.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.hists
