(** Pluggable file-conflict resolvers for the CRDT merge path.

    When reconciliation finds two concurrent versions of a file, the
    resolver decides what happens to the multi-value register:

    - [Lww]: install {!Mv_register.winner} with the joined version
      vector — fully automatic, deterministic on every replica, no
      pending conflict left behind.
    - [Owner_report]: the paper's behavior — leave the register
      pending in {!Conflict_log} for the owner to resolve (via
      [ficusctl resolve] or {!Reconcile.resolve_file_conflict}).
    - [App_merge f]: fold the application's merge callback over the
      register ({!Mv_register.merge_all}) and install the result —
      deterministic as long as [f] is. *)

type t =
  | Lww
  | Owner_report
  | App_merge of (string -> string -> string)
