type fh = string

type request =
  | Root of string
  | Getattr of fh
  | Setattr of fh * Vnode.setattr
  | Lookup of fh * string
  | Create of fh * string
  | Mkdir of fh * string
  | Remove of fh * string
  | Rmdir of fh * string
  | Rename of fh * string * fh * string
  | Link of fh * fh * string
  | Readdir of fh
  | Read of fh * int * int
  | Write of fh * int * string
  | Traced of int * request
      (* A request stamped with a causal trace span id.  NFS itself is
         stateless, so the only way a trace crosses the wire is inside
         the request — the same smuggling trick as the ctl-names. *)

type response =
  | R_ok
  | R_attrs of Vnode.attrs
  | R_node of fh * Vnode.attrs
  | R_dirents of Vnode.dirent list
  | R_data of string
  | R_error of Errno.t

type Sim_net.payload +=
  | Nfs_request of request
  | Nfs_response of response

(* Requests that mutate server state; the interesting ones to trace. *)
let rec is_update = function
  | Setattr _ | Create _ | Mkdir _ | Remove _ | Rmdir _ | Rename _ | Link _ | Write _ ->
    true
  | Root _ | Getattr _ | Lookup _ | Readdir _ | Read _ -> false
  | Traced (_, req) -> is_update req

(* Wire-size estimates for the simulated transport: a fixed per-message
   framing overhead (opcode + XID, roughly what an RPC header costs)
   plus every variable-length field.  The simulator never marshals, so
   these are the protocol's honest sizing of what WOULD travel — the
   transport-level cross-check for the propagation layer's own
   "prop.bytes" accounting. *)
let header_size = 16

let rec wire_size_request = function
  | Root e -> header_size + String.length e
  | Getattr fh | Readdir fh -> header_size + String.length fh
  | Setattr (fh, _) -> header_size + String.length fh + 16
  | Lookup (fh, n) | Create (fh, n) | Mkdir (fh, n) | Remove (fh, n) | Rmdir (fh, n)
    ->
    header_size + String.length fh + String.length n
  | Rename (s, sn, d, dn) ->
    header_size + String.length s + String.length sn + String.length d
    + String.length dn
  | Link (d, t, n) ->
    header_size + String.length d + String.length t + String.length n
  | Read (fh, _, _) -> header_size + String.length fh + 16
  | Write (fh, _, data) -> header_size + String.length fh + 8 + String.length data
  | Traced (_, req) -> 8 + wire_size_request req

let attrs_size = 32 (* kind + size + three timestamps, fixed-width *)

let wire_size_response = function
  | R_ok -> header_size
  | R_attrs _ -> header_size + attrs_size
  | R_node (fh, _) -> header_size + String.length fh + attrs_size
  | R_dirents entries ->
    List.fold_left
      (fun acc (e : Vnode.dirent) -> acc + String.length e.Vnode.entry_name + 8)
      header_size entries
  | R_data data -> header_size + String.length data
  | R_error _ -> header_size + 4
