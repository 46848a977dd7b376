(** Transparent encryption layer (the paper's second forecast use of
    stackable layers, §1).

    Encrypts regular-file contents below it with a position-dependent
    keystream, so random-access reads and writes at any offset remain
    O(length) and layers above are completely unaware: the whole Ficus
    physical layer runs unmodified on top of an encrypting stack (its
    DIR and aux files are then encrypted at rest too — see the tests).

    Built as {!Vnode.forward} with the lower layer's [data], overriding
    only [read] and [write]; every other operation, and the wrapping of
    the vnodes [lookup], [create] and [mkdir] return, is the skeleton's.

    Names and attributes are not hidden, and the keystream is a toy
    (repeating-key XOR): this demonstrates the {e architecture} —
    transparent insertion of a data-transforming layer — not a real
    cipher.  A production layer would swap in an actual stream cipher
    behind the same [transform]. *)

val wrap : key:string -> Vnode.t -> Vnode.t
(** [key] must be non-empty.  Wrapping the same stack twice with the
    same key yields plaintext (XOR involution) — handy in tests. *)
