(** The control-plane state machine replicated by {!Raft}.

    Commands are the cluster's control metadata mutations — volume
    registration and replica-set changes — encoded as
    opaque strings for the log.  Application is deterministic and
    sequential, so every coordinator that applies the same committed
    prefix holds the same registry; the log index of the last command
    applied ({!applied_index}) doubles as the {e committed-index
    high-water mark} that non-members compare against gossip-carried
    state to decide which view of a volume is fresher. *)

type cmd =
  | Register_volume of {
      rv_alloc : int;
      rv_vol : int;
      rv_label : string;
      rv_replicas : (int * string) list;  (** (replica-id, host) *)
    }
      (** Create the volume with its initial replica set.  Applying to an
          already-registered volume is a no-op (first writer wins). *)
  | Set_replicas of {
      sr_alloc : int;
      sr_vol : int;
      sr_replicas : (int * string) list;
    }
      (** Replace the volume's replica set (add/remove replica).  No-op
          for unregistered volumes. *)

val encode_cmd : cmd -> string

type t

val create : unit -> t

(** {1 The state-machine hooks Raft drives} *)

val apply : t -> index:int -> string -> unit
(** Apply one committed command (undecodable commands are counted and
    skipped — a bug, not a crash, in a simulation). *)

val snapshot : t -> string
val restore : t -> string -> unit
(** [restore t ""] resets to the initial empty state. *)

(** {1 Reads} *)

val applied_index : t -> int
(** Raft log index of the last command applied; 0 initially. *)

val volume : t -> alloc:int -> vol:int -> ((int * string) list * int) option
(** Committed replica set and the log index of the command that last
    touched this volume. *)

