(** User-authentication / access-control layer (the paper's third
    forecast use of stackable layers, §1).

    Interposes a credential: every operation through the wrapped stack
    runs as a fixed user id, and the standard owner/other permission
    bits of the objects below are enforced — read bits gate [read] and
    [readdir]; execute bits gate directory traversal ([lookup]); write
    bits gate [write], [setattr], [create], [remove], [mkdir], [rmdir],
    [rename] (on both the source and the destination directory) and
    [link].  Denied operations fail with [EACCES].  The superuser
    (uid 0) bypasses all checks, as tradition demands.  Objects made by
    [create] and [mkdir] are owned by the credential.

    Like every layer here it is purely interposed: the layers below
    store ordinary mode bits and know nothing about enforcement, and
    the layers above need not know a credential check is happening.
    It is {!Vnode.forward} with the lower layer's [data], overriding
    only the checked operations. *)

val wrap : uid:int -> Vnode.t -> Vnode.t
