type step =
  | Create of int * string * string
  | Write of int * string * string
  | Mkdir of int * string
  | Remove of int * string
  | Rename of int * string * string
  | Partition of int list list
  | Heal
  | Tick of int
  | Propagate
  | Converge of int
  | Reboot of int

type t = {
  cluster : Cluster.t;
  vref : Ids.volume_ref;
  roots : (int, Vnode.t) Hashtbl.t;
  mutable pulls : int;
  mutable recon_errors : int;
}

let ( let* ) = Result.bind

let start cluster vref =
  { cluster; vref; roots = Hashtbl.create 8; pulls = 0; recon_errors = 0 }

let root s i =
  match Hashtbl.find_opt s.roots i with
  | Some r -> Ok r
  | None ->
    let* r = Cluster.logical_root s.cluster i s.vref in
    Hashtbl.replace s.roots i r;
    Ok r

let parent s host path =
  let* root = root s host in
  Namei.walk_parent ~root path

let apply s = function
  | Create (h, path, data) ->
    let* dir, name = parent s h path in
    let* f = dir.Vnode.create name in
    Vnode.write_all f data
  | Write (h, path, data) ->
    let* dir, name = parent s h path in
    let* f =
      match dir.Vnode.lookup name with
      | Error Errno.ENOENT -> dir.Vnode.create name
      | r -> r
    in
    Vnode.write_all f data
  | Mkdir (h, path) ->
    let* dir, name = parent s h path in
    Result.map ignore (dir.Vnode.mkdir name)
  | Remove (h, path) ->
    let* dir, name = parent s h path in
    dir.Vnode.remove name
  | Rename (h, src, dst) ->
    let* sdir, sname = parent s h src in
    let* ddir, dname = parent s h dst in
    sdir.Vnode.rename sname ddir dname
  | Partition groups -> Ok (Cluster.partition s.cluster groups)
  | Heal -> Ok (Cluster.heal s.cluster)
  | Tick n ->
    let p, stats = Cluster.tick_daemons s.cluster n in
    s.pulls <- s.pulls + p;
    s.recon_errors <- s.recon_errors + stats.Reconcile.errors;
    Ok ()
  | Propagate -> Ok (ignore (Cluster.run_propagation s.cluster))
  | Converge max_rounds ->
    Result.map ignore (Cluster.converge s.cluster s.vref ~max_rounds ())
  | Reboot h ->
    Hashtbl.remove s.roots h;
    Cluster.reboot s.cluster h

let rec run s = function
  | [] -> Ok ()
  | step :: rest ->
    let* () = apply s step in
    run s rest

let run_all s steps =
  List.fold_left
    (fun failed step -> match apply s step with Ok () -> failed | Error _ -> failed + 1)
    0 steps

let pulls s = s.pulls
let recon_errors s = s.recon_errors

let step_to_string = function
  | Create (h, p, d) -> Printf.sprintf "h%d create %s %S" h p d
  | Write (h, p, d) -> Printf.sprintf "h%d write %s %S" h p d
  | Mkdir (h, p) -> Printf.sprintf "h%d mkdir %s" h p
  | Remove (h, p) -> Printf.sprintf "h%d remove %s" h p
  | Rename (h, a, b) -> Printf.sprintf "h%d rename %s %s" h a b
  | Partition groups ->
    "partition "
    ^ String.concat "|"
        (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups)
  | Heal -> "heal"
  | Tick n -> Printf.sprintf "tick %d" n
  | Propagate -> "propagate"
  | Converge n -> Printf.sprintf "converge %d" n
  | Reboot h -> Printf.sprintf "reboot %d" h

let to_string steps = String.concat "; " (List.map step_to_string steps)

let state = Crdt_merge.state
