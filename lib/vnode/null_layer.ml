type Vnode.vdata += Null of Vnode.t

(* A sibling vnode passed as an argument (rename destination, link
   target) must be one of ours; a vnode from a different layer is a
   caller error. *)
let unwrap (v : Vnode.t) =
  match v.Vnode.data with
  | Null lower -> Ok lower
  | _ -> Error Errno.EXDEV

let wrap ?counters lower =
  let hook =
    match counters with
    | None -> Vnode.transparent
    | Some c ->
      { Vnode.around = (fun _ op -> Counters.incr c "layer.crossings"; op ()) }
  in
  let rec make lower = Vnode.forward ~hook ~data:(Null lower) ~wrap:make ~unwrap lower in
  make lower

let wrap_depth ?counters n lower =
  let rec go n v = if n <= 0 then v else go (n - 1) (wrap ?counters v) in
  go n lower
