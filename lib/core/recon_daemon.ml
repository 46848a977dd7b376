type t = {
  period : int;
  clock : Clock.t;
  host : string;
  connect : Remote.connector;
  replicas : unit -> (Ids.volume_ref * Physical.t) list;
  liveness : string -> Gossip.liveness;
  rotation : (int * int, int) Hashtbl.t;  (* volume -> peer cursor *)
  counters : Counters.t;
  mutable next_due : int;
}

let create ~period ~obs ~liveness ~clock ~host ~connect ~replicas () =
  {
    period;
    clock;
    host;
    connect;
    replicas;
    liveness;
    rotation = Hashtbl.create 8;
    counters = Obs.counters obs;
    next_due = Clock.now clock + period;
  }

let counters t = t.counters
let next_due t = t.next_due

(* Reconcile one local replica against its next rotation peer.  An
   unreachable peer is skipped — the daemon fails over to the following
   peers in rotation order rather than wasting the whole period, so one
   dead host degrades a pass gracefully instead of erroring it out.
   When a gossip failure detector is wired in, peers it considers
   suspect or dead are tried last (never never): a healthy peer earlier
   in the order absorbs the pass without a single wasted RPC, while a
   cluster of all-doubtful peers still gets probed, preserving the
   reconciliation guarantee. *)
let reconcile_one t (vref, phys) =
  let my_rid = Physical.rid phys in
  let peers =
    Array.of_list
      (List.filter (fun (rid, _) -> rid <> my_rid) (Physical.peers phys))
  in
  let npeers = Array.length peers in
  if npeers = 0 then Reconcile.empty_stats
  else begin
    let key = (vref.Ids.alloc, vref.Ids.vol) in
    let cursor = Option.value ~default:0 (Hashtbl.find_opt t.rotation key) in
    Hashtbl.replace t.rotation key (cursor + 1);
    let rank (_, h) =
      match t.liveness h with
      | Gossip.Alive -> 0
      | Gossip.Suspect -> 1
      | Gossip.Dead -> 2
    in
    let ordered =
      List.init npeers (fun k -> peers.((cursor + k) mod npeers))
      |> List.stable_sort (fun a b -> compare (rank a) (rank b))
      |> Array.of_list
    in
    let doubtful =
      Array.fold_left (fun n p -> if rank p > 0 then n + 1 else n) 0 ordered
    in
    let rec try_peer k =
      if k >= npeers then begin
        (* Every peer unreachable this pass; reconciliation will catch
           up when somebody returns. *)
        Counters.incr t.counters "recon.errors";
        { Reconcile.empty_stats with errors = 1 }
      end
      else begin
        let remote_rid, remote_host = ordered.(k) in
        Counters.incr t.counters "recon.pairs";
        match t.connect ~host:remote_host ~vref ~rid:remote_rid with
        | Error _ ->
          Counters.incr t.counters "recon.skipped";
          try_peer (k + 1)
        | Ok remote_root ->
          if doubtful > 0 && rank ordered.(k) = 0 then
            (* A healthy peer took the pass; every doubtful peer behind
               it was spared a connect this period. *)
            Counters.add t.counters "recon.skipped_doubtful" doubtful;
          (match
             Reconcile.reconcile_volume ~local:phys ~remote_root ~remote_rid ()
           with
           | Ok stats -> stats
           | Error _ ->
             (* Mid-reconcile failure (e.g. the link died): no failover —
                partial progress is already durable and the next period
                resumes. *)
             Counters.incr t.counters "recon.errors";
             { Reconcile.empty_stats with errors = 1 })
      end
    in
    try_peer 0
  end

let force t =
  Counters.incr t.counters "recon.passes";
  t.next_due <- Clock.now t.clock + t.period;
  List.fold_left
    (fun acc replica -> Reconcile.add_stats acc (reconcile_one t replica))
    Reconcile.empty_stats (t.replicas ())

let tick t = if Clock.now t.clock >= t.next_due then Some (force t) else None
