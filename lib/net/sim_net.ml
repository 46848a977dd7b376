type host_id = int

type payload = ..

type faults = {
  loss : float;
  rpc_failure_prob : float;
  latency_min : int;
  latency_max : int;
  duplication_prob : float;
  reorder_prob : float;
}

let no_faults =
  {
    loss = 0.0;
    rpc_failure_prob = 0.0;
    latency_min = 0;
    latency_max = 0;
    duplication_prob = 0.0;
    reorder_prob = 0.0;
  }

let check_faults f =
  let prob p = p >= 0.0 && p <= 1.0 in
  if
    not
      (prob f.loss && prob f.rpc_failure_prob && prob f.duplication_prob
       && prob f.reorder_prob && f.latency_min >= 0
       && f.latency_max >= 0)
  then invalid_arg "Sim_net: bad fault spec"

type host = {
  name : string;
  mutable group : int;
  mutable flaky_until : int;
  mutable datagram_handlers : (src:host_id -> payload -> unit) list;
  mutable rpc_handlers : (src:host_id -> payload -> payload option) list;
}

type packet = {
  p_src : host_id;
  p_dst : host_id;
  p_payload : payload;
  p_due : int;  (* deliverable once the clock reaches this tick *)
  p_seq : int;  (* send order, the tiebreak among equally due packets *)
}

module Imap = Map.Make (Int)

(* Two interchangeable queue representations.  [Linear] is the seed
   behavior: an unordered list that every pump partitions and sorts.
   [Indexed] is an event queue keyed by delivery tick; each bucket holds
   its packets newest-first, so popping the <= now buckets in key order
   and reversing each reproduces the exact (due, seq) delivery order the
   linear path sorts into.  Both representations consume the PRNG
   identically (latency at send, reorder/loss at delivery in ready
   order), so a given (seed, schedule) produces the same run under
   either — the equivalence qcheck in the test suite holds them to it. *)
type queue =
  | Linear of packet list
  | Indexed of packet list Imap.t

type t = {
  clock : Clock.t;
  rng : Random.State.t;
  mutable faults : faults;
  severed : (host_id * host_id, unit) Hashtbl.t;
  mutable host_table : host array;
  mutable queue : queue;
  mutable npending : int;
  mutable seq : int;
  mutable deliver_hook : (host_id -> unit) option;
  counters : Counters.t;
}

let create ~seed ~obs ~indexed clock =
  {
    clock;
    rng = Random.State.make [| seed |];
    faults = no_faults;
    severed = Hashtbl.create 8;
    host_table = [||];
    queue = (if indexed then Indexed Imap.empty else Linear []);
    npending = 0;
    seq = 0;
    deliver_hook = None;
    counters = Obs.counters obs;
  }

let set_deliver_hook t f = t.deliver_hook <- Some f

let clock t = t.clock
let counters t = t.counters

let add_host t name =
  let id = Array.length t.host_table in
  let h =
    { name; group = 0; flaky_until = 0; datagram_handlers = []; rpc_handlers = [] }
  in
  t.host_table <- Array.append t.host_table [| h |];
  id

let host t id =
  if id < 0 || id >= Array.length t.host_table then invalid_arg "Sim_net: bad host id";
  t.host_table.(id)

let host_name t id = (host t id).name

let hosts t = List.init (Array.length t.host_table) Fun.id

(* ------------------------------------------------------------------ *)
(* Fault configuration                                                 *)

let set_faults t f =
  check_faults f;
  t.faults <- f

let clear_faults t = t.faults <- no_faults

let set_flaky t id ~until = (host t id).flaky_until <- until

let flaky t id = (host t id).flaky_until > Clock.now t.clock

(* ------------------------------------------------------------------ *)
(* Partitions, severed links, flaky windows                            *)

let set_partition t groups =
  let mentioned = Hashtbl.create 16 in
  List.iteri
    (fun gi members ->
      List.iter
        (fun id ->
          (host t id).group <- gi;
          Hashtbl.replace mentioned id ())
        members)
    groups;
  (* Unmentioned hosts become isolated in fresh singleton groups. *)
  let next = ref (List.length groups) in
  Array.iteri
    (fun id h ->
      if not (Hashtbl.mem mentioned id) then begin
        h.group <- !next;
        incr next
      end)
    t.host_table

let heal t =
  Array.iter
    (fun h ->
      h.group <- 0;
      h.flaky_until <- 0)
    t.host_table;
  Hashtbl.reset t.severed

let isolate t id =
  (* A true lowest-free search: the group must differ from every other
     host's, whatever sparse ids earlier set_partition/isolate calls
     left behind, and repeated calls must not grow ids unboundedly. *)
  let used = Hashtbl.create 16 in
  Array.iteri
    (fun i h -> if i <> id then Hashtbl.replace used h.group ())
    t.host_table;
  let g = ref 0 in
  while Hashtbl.mem used !g do
    incr g
  done;
  (host t id).group <- !g

let sever t ~src ~dst = Hashtbl.replace t.severed (src, dst) ()

let unsever t ~src ~dst = Hashtbl.remove t.severed (src, dst)

let reachable t a b =
  a = b
  || ((host t a).group = (host t b).group
      && (not (Hashtbl.mem t.severed (a, b)))
      && (not (flaky t a))
      && not (flaky t b))

(* ------------------------------------------------------------------ *)
(* Datagrams                                                           *)

let draw_latency t (f : faults) =
  if f.latency_max <= f.latency_min then f.latency_min
  else f.latency_min + Random.State.int t.rng (f.latency_max - f.latency_min + 1)

let enqueue t ~src ~dst p ~due =
  let pkt = { p_src = src; p_dst = dst; p_payload = p; p_due = due; p_seq = t.seq } in
  t.seq <- t.seq + 1;
  t.npending <- t.npending + 1;
  match t.queue with
  | Linear q -> t.queue <- Linear (pkt :: q)
  | Indexed m ->
    let bucket = Option.value ~default:[] (Imap.find_opt due m) in
    t.queue <- Indexed (Imap.add due (pkt :: bucket) m)

let send t ~src ~dst p =
  Counters.incr t.counters "net.datagrams.sent";
  let f = t.faults in
  let now = Clock.now t.clock in
  enqueue t ~src ~dst p ~due:(now + draw_latency t f);
  if f.duplication_prob > 0.0 && Random.State.float t.rng 1.0 < f.duplication_prob
  then begin
    Counters.incr t.counters "net.datagrams.duplicated";
    enqueue t ~src ~dst p ~due:(now + draw_latency t f)
  end

let broadcast t ~src ~dst p = List.iter (fun d -> send t ~src ~dst:d p) dst

let register_handler t id f =
  let h = host t id in
  h.datagram_handlers <- h.datagram_handlers @ [ f ]

let pending t = t.npending

(* Pull every packet due by [now], in (due, seq) order.  Linear: one
   partition + sort over the whole queue, O(pending · log pending) per
   pump even when nothing is due.  Indexed: split off the ripe buckets,
   O(log buckets) when nothing is due. *)
let take_ready t now =
  match t.queue with
  | Linear q ->
    let ready, later = List.partition (fun p -> p.p_due <= now) q in
    t.queue <- Linear later;
    List.sort
      (fun a b ->
        match Int.compare a.p_due b.p_due with 0 -> Int.compare a.p_seq b.p_seq | c -> c)
      ready
  | Indexed m ->
    let below, at_now, above = Imap.split now m in
    t.queue <- Indexed above;
    let buckets =
      Imap.bindings below
      @ (match at_now with Some b -> [ (now, b) ] | None -> [])
    in
    List.concat_map (fun (_, bucket) -> List.rev bucket) buckets

(* One adjacent-swap pass over the delivery order: each packet may slip
   behind its successor with the link's reorder probability. *)
let rec reorder_pass t = function
  | a :: b :: rest ->
    let f = t.faults in
    if f.reorder_prob > 0.0 && Random.State.float t.rng 1.0 < f.reorder_prob then begin
      Counters.incr t.counters "net.datagrams.reordered";
      b :: reorder_pass t (a :: rest)
    end
    else a :: reorder_pass t (b :: rest)
  | l -> l

let pump t =
  let now = Clock.now t.clock in
  let ready = take_ready t now in
  t.npending <- t.npending - List.length ready;
  let ready = reorder_pass t ready in
  let delivered = ref 0 in
  let deliver p =
    let f = t.faults in
    let lost = f.loss > 0.0 && Random.State.float t.rng 1.0 < f.loss in
    if lost || not (reachable t p.p_src p.p_dst) then
      Counters.incr t.counters "net.datagrams.dropped"
    else begin
      Counters.incr t.counters "net.datagrams.delivered";
      incr delivered;
      (match t.deliver_hook with Some f -> f p.p_dst | None -> ());
      List.iter (fun f -> f ~src:p.p_src p.p_payload) (host t p.p_dst).datagram_handlers
    end
  in
  List.iter deliver ready;
  !delivered

(* ------------------------------------------------------------------ *)
(* RPC                                                                 *)

let register_rpc t id f =
  let h = host t id in
  h.rpc_handlers <- h.rpc_handlers @ [ f ]

let call t ~src ~dst p =
  Counters.incr t.counters "net.rpc.calls";
  if not (reachable t src dst) then begin
    Counters.incr t.counters "net.rpc.failed";
    Error Errno.EUNREACHABLE
  end
  else
    let f = t.faults in
    if f.rpc_failure_prob > 0.0 && Random.State.float t.rng 1.0 < f.rpc_failure_prob
    then begin
      Counters.incr t.counters "net.rpc.failed";
      Counters.incr t.counters "net.rpc.injected";
      Error Errno.EUNREACHABLE
    end
    else
      let rec try_handlers = function
        | [] ->
          Counters.incr t.counters "net.rpc.failed";
          Error Errno.ENOTSUP
        | f :: rest ->
          (match f ~src p with Some resp -> Ok resp | None -> try_handlers rest)
      in
      try_handlers (host t dst).rpc_handlers
