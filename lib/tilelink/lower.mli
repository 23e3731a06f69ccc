(** Backend lowering: frontend primitives -> device instructions,
    resolved through a tile-centric mapping. *)

type copy_labels
(** The ["push->r%d"] / ["pull<-r%d"] copy labels, indexed by peer
    rank. *)

val copy_labels : world_size:int -> copy_labels

val self : int
(** The symbolic rank: lowering with [rank = self] leaves it in every
    signal target that names the executing rank.  It is negative, so
    {!Program.validate} rejects a program it leaks into. *)

type config = {
  mapping : Mapping.t;
  rank : int;  (** The executing rank, or {!self}. *)
  world_size : int;
  labels : copy_labels;
      (** Shared by every rank of a program when built once (see
          {!Block_channel.per_rank}). *)
}

val bytes_of_access : Instr.access -> float
val lower_stmt : config -> Primitive.t -> Instr.t list
val lower : config -> Primitive.t list -> Instr.t list
