(** Pathname translation over any vnode stack.

    [walk] is the system-call layer's name-to-vnode translation: it splits
    a slash-separated path and resolves one component at a time with
    [lookup], so every layer (including autografting logical layers) sees
    each component individually — exactly how graft points get noticed
    during translation (paper §4.4). *)

val walk : root:Vnode.t -> string -> Vnode.t Vnode.io
(** Resolve [path] starting at [root].  An empty path or ["/"] resolves to
    [root] itself. *)

val walk_parent : root:Vnode.t -> string -> (Vnode.t * string) Vnode.io
(** Resolve all but the final component, returning the parent vnode and
    the final name — what creat/unlink/rename need.  Fails with [EINVAL]
    on the empty path. *)

val mkdir_p : root:Vnode.t -> string -> Vnode.t Vnode.io
(** Create each missing directory along [path]; existing directories are
    fine, an existing non-directory is [ENOTDIR]. *)
