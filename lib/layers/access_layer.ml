let ( let* ) = Result.bind

type perm = Pread | Pwrite | Pexec

(* Owner bits if the credential owns the object, otherwise the
   world bits (the simulation has no groups). *)
let permitted ~uid (attrs : Vnode.attrs) perm =
  uid = 0
  ||
  let shift = if attrs.Vnode.uid = uid then 6 else 0 in
  let bit = match perm with Pread -> 4 | Pwrite -> 2 | Pexec -> 1 in
  attrs.Vnode.mode lsr shift land bit <> 0

let wrap ~uid lower =
  let check (v : Vnode.t) perm k =
    let* attrs = v.Vnode.getattr () in
    if permitted ~uid attrs perm then k () else Error Errno.EACCES
  in
  (* New objects belong to their creator, as in Unix.  The stamp is set
     below this layer: the creator may not hold write permission on
     what the layer below just made. *)
  let owned (dir : Vnode.t) mk name =
    check dir Pwrite (fun () ->
        let* child = mk name in
        let* () = child.Vnode.setattr { Vnode.setattr_none with Vnode.set_uid = Some uid } in
        Ok child)
  in
  let rec make (lower : Vnode.t) : Vnode.t =
    let v =
      Vnode.forward ~hook:Vnode.transparent ~data:lower.Vnode.data ~wrap:make
        ~unwrap:Result.ok
        {
          lower with
          Vnode.create = owned lower lower.Vnode.create;
          mkdir = owned lower lower.Vnode.mkdir;
        }
    in
    {
      v with
      Vnode.lookup = (fun name -> check lower Pexec (fun () -> v.Vnode.lookup name));
      remove = (fun name -> check lower Pwrite (fun () -> v.Vnode.remove name));
      rmdir = (fun name -> check lower Pwrite (fun () -> v.Vnode.rmdir name));
      rename =
        (fun src dst dname ->
          check lower Pwrite (fun () ->
              check dst Pwrite (fun () -> v.Vnode.rename src dst dname)));
      link = (fun target name -> check lower Pwrite (fun () -> v.Vnode.link target name));
      readdir = (fun () -> check lower Pread v.Vnode.readdir);
      read = (fun ~off ~len -> check lower Pread (fun () -> v.Vnode.read ~off ~len));
      write = (fun ~off data -> check lower Pwrite (fun () -> v.Vnode.write ~off data));
      setattr =
        (fun sa ->
          (* chmod/chown of your own file is allowed even without the
             write bit, like Unix. *)
          let* attrs = lower.Vnode.getattr () in
          let chmod_only =
            sa.Vnode.set_size = None && (attrs.Vnode.uid = uid || uid = 0)
          in
          if chmod_only || permitted ~uid attrs Pwrite then v.Vnode.setattr sa
          else Error Errno.EACCES);
    }
  in
  make lower
