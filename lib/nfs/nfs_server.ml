open Nfs_proto

type t = {
  net : Sim_net.t;
  host : Sim_net.host_id;
  exports : (string, Vnode.t) Hashtbl.t;
  table : (int, Vnode.t) Hashtbl.t;  (* slot -> vnode *)
  mutable next_slot : int;
  mutable epoch : int;
  obs : Obs.t;
}


let encode_fh t slot = Printf.sprintf "fh:%d:%d:%d" t.host t.epoch slot

let decode_fh t fh =
  match String.split_on_char ':' fh with
  | [ "fh"; h; e; s ] ->
    (match int_of_string_opt h, int_of_string_opt e, int_of_string_opt s with
     | Some h, Some e, Some s when h = t.host && e = t.epoch -> Some s
     | _, _, _ -> None)
  | _ -> None

let issue t v =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  Hashtbl.replace t.table slot v;
  encode_fh t slot

let resolve t fh =
  match decode_fh t fh with
  | None -> Error Errno.ESTALE
  | Some slot ->
    (match Hashtbl.find_opt t.table slot with
     | None -> Error Errno.ESTALE
     | Some v -> Ok v)

let ( let* ) = Result.bind

let node_response t v =
  let* attrs = v.Vnode.getattr () in
  Ok (R_node (issue t v, attrs))

let rec handle t req : response =
  let result =
    match req with
    | Traced (span, req) ->
      (* Re-establish the caller's trace context for the layers below
         this server (physical layer, journal): the span id arrived on
         the wire because NFS has no other channel for it. *)
      let ctx =
        Span.make_ctx ~spans:t.obs.Obs.spans ~id:span
          ~host:(Sim_net.host_name t.net t.host)
          ~now:(fun () -> Clock.now (Sim_net.clock t.net))
      in
      Span.with_ctx ctx (fun () ->
          if is_update req then Span.emit "nfs:serve";
          Ok (handle t req))
    | Root name ->
      (match Hashtbl.find_opt t.exports name with
       | None -> Error Errno.ENOENT
       | Some v -> node_response t v)
    | Getattr fh ->
      let* v = resolve t fh in
      let* attrs = v.Vnode.getattr () in
      Ok (R_attrs attrs)
    | Setattr (fh, sa) ->
      let* v = resolve t fh in
      let* () = v.Vnode.setattr sa in
      Ok R_ok
    | Lookup (fh, name) ->
      let* v = resolve t fh in
      let* child = v.Vnode.lookup name in
      node_response t child
    | Create (fh, name) ->
      let* v = resolve t fh in
      let* child = v.Vnode.create name in
      node_response t child
    | Mkdir (fh, name) ->
      let* v = resolve t fh in
      let* child = v.Vnode.mkdir name in
      node_response t child
    | Remove (fh, name) ->
      let* v = resolve t fh in
      let* () = v.Vnode.remove name in
      Ok R_ok
    | Rmdir (fh, name) ->
      let* v = resolve t fh in
      let* () = v.Vnode.rmdir name in
      Ok R_ok
    | Rename (sfh, sname, dfh, dname) ->
      let* sv = resolve t sfh in
      let* dv = resolve t dfh in
      let* () = sv.Vnode.rename sname dv dname in
      Ok R_ok
    | Link (dfh, tfh, name) ->
      let* dv = resolve t dfh in
      let* tv = resolve t tfh in
      let* () = dv.Vnode.link tv name in
      Ok R_ok
    | Readdir fh ->
      let* v = resolve t fh in
      let* entries = v.Vnode.readdir () in
      Ok (R_dirents entries)
    | Read (fh, off, len) ->
      let* v = resolve t fh in
      let* data = v.Vnode.read ~off ~len in
      Ok (R_data data)
    | Write (fh, off, data) ->
      let* v = resolve t fh in
      let* () = v.Vnode.write ~off data in
      Ok R_ok
  in
  match result with Ok resp -> resp | Error e -> R_error e

let create ~obs net ~host =
  let t =
    {
      net;
      host;
      exports = Hashtbl.create 4;
      table = Hashtbl.create 64;
      next_slot = 0;
      epoch = 0;
      obs;
    }
  in
  let rpc ~src:_ payload =
    match payload with
    | Nfs_request req -> Some (Nfs_response (handle t req))
    | _ -> None
  in
  Sim_net.register_rpc net host rpc;
  t

let add_export t ~name root = Hashtbl.replace t.exports name root

let restart t =
  Hashtbl.reset t.table;
  t.epoch <- t.epoch + 1;
  t.next_slot <- 0
