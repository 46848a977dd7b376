type entry = {
  vref : Ids.volume_ref;
  fidpath : Ids.file_id list;
  fid : Ids.file_id;
  kind : Aux_attrs.fkind;
  origin_rid : Ids.replica_id;
  origin_host : string;
  span : int;
  vv : Version_vector.t;
  queued_at : int;
  mutable attempts : int;
  mutable not_before : int;  (* backoff: ignore until the clock reaches this *)
}

type key = int * int * string (* alloc, vol, fidpath *)

type t = {
  table : (key, entry) Hashtbl.t;
  held : (key, (Ids.replica_id * int) list) Hashtbl.t;
}

let create () = { table = Hashtbl.create 32; held = Hashtbl.create 32 }

let key_of vref fidpath =
  (vref.Ids.alloc, vref.Ids.vol, Ids.fidpath_to_string fidpath)

let note t (e : Notify.event) ~now =
  let key = key_of e.Notify.vref e.Notify.fidpath in
  match Hashtbl.find_opt t.table key with
  | Some pending ->
    (* Absorb: keep the earliest queue time, follow the newest origin,
       and merge the advertised histories — the pull must satisfy every
       notification it collapses. *)
    Hashtbl.replace t.table key
      {
        pending with
        origin_rid = e.Notify.origin_rid;
        origin_host = e.Notify.origin_host;
        kind = e.Notify.kind;
        span = (if e.Notify.span <> 0 then e.Notify.span else pending.span);
        vv = Version_vector.merge pending.vv e.Notify.vv;
      };
    true
  | None ->
    Hashtbl.replace t.table key
      {
        vref = e.Notify.vref;
        fidpath = e.Notify.fidpath;
        fid = e.Notify.fid;
        kind = e.Notify.kind;
        origin_rid = e.Notify.origin_rid;
        origin_host = e.Notify.origin_host;
        span = e.Notify.span;
        vv = e.Notify.vv;
        queued_at = now;
        attempts = 0;
        not_before = 0;
      };
    false

let take_ready t ~now ~min_age =
  let ready, _ =
    Hashtbl.fold
      (fun key e (ready, keep) ->
        if now - e.queued_at >= min_age && now >= e.not_before then
          ((key, e) :: ready, keep)
        else (ready, keep))
      t.table ([], ())
  in
  List.iter (fun (key, _) -> Hashtbl.remove t.table key) ready;
  List.map snd ready
  |> List.sort (fun a b -> Int.compare a.queued_at b.queued_at)

let find t vref fidpath = Hashtbl.find_opt t.table (key_of vref fidpath)

let note_held t (e : Notify.event) ~now =
  let key = key_of e.Notify.vref e.Notify.fidpath in
  let others =
    List.filter (fun (rid, _) -> rid <> e.Notify.origin_rid)
      (Option.value ~default:[] (Hashtbl.find_opt t.held key))
  in
  Hashtbl.replace t.held key ((e.Notify.origin_rid, now) :: others)

let holders t vref fidpath ~current =
  let key = key_of vref fidpath in
  match Hashtbl.find_opt t.held key with
  | None -> []
  | Some held ->
    let kept = List.filter (fun (rid, at) -> current rid ~at) held in
    if kept = [] then Hashtbl.remove t.held key else Hashtbl.replace t.held key kept;
    List.map fst kept

let requeue t e = Hashtbl.replace t.table (key_of e.vref e.fidpath) e

let peek t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> Int.compare a.queued_at b.queued_at)

let size t = Hashtbl.length t.table
