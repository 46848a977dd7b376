(* Repeating-key XOR, keyed by absolute file position so that a read or
   write at any offset transforms independently of any other. *)
let transform ~key ~off data =
  let klen = String.length key in
  String.init (String.length data) (fun i ->
      Char.chr (Char.code data.[i] lxor Char.code key.[(off + i) mod klen]))

let wrap ~key lower =
  if key = "" then invalid_arg "Crypt_layer.wrap: empty key";
  let rec make (lower : Vnode.t) : Vnode.t =
    let v =
      Vnode.forward ~hook:Vnode.transparent ~data:lower.Vnode.data ~wrap:make
        ~unwrap:Result.ok lower
    in
    {
      v with
      Vnode.read = (fun ~off ~len -> Result.map (transform ~key ~off) (v.Vnode.read ~off ~len));
      write = (fun ~off data -> v.Vnode.write ~off (transform ~key ~off data));
    }
  in
  make lower
