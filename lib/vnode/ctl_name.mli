(** Overloading [lookup] with encoded control requests (paper §2.3).

    The vnode interface predates Ficus and cannot be extended without
    touching every transport in between — in particular NFS, which
    silently discards [open]/[close].  Ficus therefore smuggles new
    services through [lookup] as specially formatted name strings that
    NFS forwards "without interpretation or interference".

    A control name is [".#ficus#<op>#<arg>#<arg>..."] where each argument
    is percent-escaped so it cannot contain ['#'].  The whole name must
    fit in a directory-name component (255 bytes); the paper notes the
    encoding reduces the usable file-name length to about 200 characters
    and that this costs nothing in practice ("we've never seen a
    component of even length 40"). *)

val max_component : int
(** 255, the UFS name-component limit. *)

val is_ctl : string -> bool
(** Does this lookup name carry an encoded control request? *)

val encode : op:string -> args:string list -> (string, Errno.t) result
(** Build a control name; [Error ENAMETOOLONG] if it exceeds
    {!max_component}. *)

val decode : string -> (string * string list) option
(** [decode name] is [Some (op, args)] for a well-formed control name and
    [None] otherwise. *)

val escape : string -> string
val unescape : string -> string option
