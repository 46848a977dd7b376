(* The polling oracle for [Most_recent] reads: the copies a poll of
   every replica would select.  It considers what the logical layer's
   first pass considers on host [i] — the grafted replicas its gossip
   detector judges [Alive] (all of them when none is), of those the ones
   the network lets it reach — reads each one's version of the object
   from the replica itself, and takes the highest score: a stored copy
   first, then the longest update history. *)

let host_index cluster name =
  let rec find j =
    if j >= Cluster.nhosts cluster then None
    else if Cluster.host_name (Cluster.host cluster j) = name then Some j
    else find (j + 1)
  in
  find 0

(* The replicas host [i]'s first pass considers, in graft order, with
   the index of the host storing each. *)
let considered cluster vref i =
  let h = Cluster.host cluster i in
  let replicas =
    List.find_map
      (fun (v, reps) -> if Ids.vref_equal v vref then Some reps else None)
      (Logical.grafted (Cluster.logical h))
    |> Option.value ~default:[]
  in
  let liveness =
    match Cluster.gossip h with Some g -> Gossip.liveness g | None -> fun _ -> Gossip.Alive
  in
  let live =
    match List.filter (fun (_, name) -> liveness name = Gossip.Alive) replicas with
    | [] -> replicas
    | live -> live
  in
  let net = Cluster.net cluster in
  List.filter_map
    (fun (rid, name) ->
      match host_index cluster name with
      | Some j when Sim_net.reachable net i j && Sim_net.reachable net j i ->
        (match Cluster.replica (Cluster.host cluster j) vref with
         | Some phys when Physical.rid phys = rid -> Some (j, phys)
         | Some _ | None -> None)
      | Some _ | None -> None)
    live

let score (vi : Physical.version_info) =
  (if vi.Physical.vi_stored then 1_000_000 else 0) + Version_vector.sum vi.Physical.vi_vv

(* The considered replicas holding the version of the object at [path]
   that a poll selects: the highest score.  Several replicas may hold
   it; the logical layer may serve any of them. *)
let newest cluster vref i path =
  let answers =
    List.filter_map
      (fun (j, phys) ->
        Result.to_option (Physical.get_version phys path) |> Option.map (fun vi -> (j, phys, vi)))
      (considered cluster vref i)
  in
  match List.stable_sort (fun (_, _, a) (_, _, b) -> Int.compare (score b) (score a)) answers with
  | [] -> []
  | (_, _, best) :: _ ->
    List.filter_map
      (fun (j, phys, (vi : Physical.version_info)) ->
        if score vi = score best && Version_vector.equal vi.Physical.vi_vv best.Physical.vi_vv
        then Some (j, phys)
        else None)
      answers

(* The bytes host [i] reads from replica [(j, phys)]: its own directly,
   another's through its NFS mount, whose attribute cache may serve a
   stale size (see [nfs_client.mli]) to the logical layer and to this
   oracle alike. *)
let read_as cluster vref i (j, phys) path =
  if j = i then Result.map snd (Physical.fetch_file phys path)
  else
    let name = Cluster.host_name (Cluster.host cluster j) in
    Result.bind (Cluster.connect_from cluster i ~host:name ~vref ~rid:(Physical.rid phys))
      (fun root -> Result.bind (Remote.walk root path) Vnode.read_all)

(* Every byte string a read of the file at [path] on host [i] may return
   when it selects a newest copy. *)
let acceptable cluster vref i path =
  List.map (fun r -> read_as cluster vref i r path) (newest cluster vref i path)
