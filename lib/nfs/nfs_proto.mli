(** The simulated NFS wire protocol (Sandberg et al. 1985).

    Deliberately {e stateless}, like the original: there is no open, no
    close, and no server-side client state beyond the file-handle table.
    This is the semantic mismatch the paper works around (§2.2): a layer
    above NFS never receives open/close, so Ficus encodes them into
    [Lookup] names instead ({!Ctl_name}). *)

type fh = string
(** Opaque file handle.  Clients must not interpret it; servers encode
    export, slot and epoch so stale handles are detected. *)

type request =
  | Root of string                       (** mount: root fh of an export *)
  | Getattr of fh
  | Setattr of fh * Vnode.setattr
  | Lookup of fh * string
  | Create of fh * string
  | Mkdir of fh * string
  | Remove of fh * string
  | Rmdir of fh * string
  | Rename of fh * string * fh * string  (** src dir, src, dst dir, dst *)
  | Link of fh * fh * string             (** dir, target, new name *)
  | Readdir of fh
  | Read of fh * int * int               (** fh, offset, length *)
  | Write of fh * int * string           (** fh, offset, data *)
  | Traced of int * request
      (** a request carrying the causal trace span id of the update it
          belongs to; the stateless protocol has nowhere else to put it *)

type response =
  | R_ok
  | R_attrs of Vnode.attrs
  | R_node of fh * Vnode.attrs           (** lookup/create/mkdir result *)
  | R_dirents of Vnode.dirent list
  | R_data of string
  | R_error of Errno.t

type Sim_net.payload +=
  | Nfs_request of request
  | Nfs_response of response

val is_update : request -> bool
(** The request mutates server state (unwraps {!Traced}). *)

val wire_size_request : request -> int
val wire_size_response : response -> int
(** Wire-size estimates: a fixed framing overhead per message plus every
    variable-length field.  The simulator never marshals, so these size
    what {e would} travel; {!Nfs_client} feeds them into
    ["nfs.client.bytes_out"] / ["nfs.client.bytes_in"] as the
    transport-level cross-check of the propagation layer's own
    ["prop.bytes"] accounting. *)
