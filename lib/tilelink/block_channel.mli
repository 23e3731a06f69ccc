(** BlockChannel: the tile-centric mapping context threaded through
    kernel builders (rank, world size, mapping, channel layout). *)

type t

val create :
  ?channel_base:int -> rank:int -> world_size:int -> Mapping.t -> t
(** The context of [rank]: in [0, world_size), or {!Lower.self} for
    {!symbolic}. *)

val per_rank : ?channel_base:int -> world_size:int -> Mapping.t -> t array
(** The contexts of ranks [0 .. world_size - 1] over one mapping, built
    once per program: element [r] equals [create ?channel_base ~rank:r],
    and every rank shares one set of copy labels. *)

val lower_config : t -> Lower.config

val symbolic : ?channel_base:int -> world_size:int -> Mapping.t -> t
(** The context of the one kernel every rank runs: its rank is
    {!Lower.self}.  Lower a rank-free task in it once per program, then
    {!instantiate_task} the result on each rank that runs the tile. *)

val lower : t -> Primitive.t list -> Instr.t list
(** Lower statements in this context, offsetting producer/consumer
    channel ids by [channel_base]. *)

type task = { label : string; stmts : Primitive.t list }
(** A task before lowering: its label and statements, which hold no
    rank.  Build one per tile of a program and lower it once, in the
    {!symbolic} context. *)

val stage_labels :
  stages:int -> tiles:int -> (int -> int -> string) -> string array array
(** [(stage_labels ~stages ~tiles fmt).(s).(k)] is [fmt s k]: the task
    labels of a ring with [stages] stages of [tiles] tiles, built once
    per program and shared by every rank. *)

val lower_task : t -> task -> Program.task
(** [lower] the statements under the task's label. *)

val instantiate : rank:int -> Instr.t list -> Instr.t list
(** Substitute [rank] for {!Lower.self} in every signal target; it
    commutes with {!Pipeline}.  Every instruction without [self], and the
    tail after the last one with it, is shared with the template. *)

val instantiate_task : rank:int -> Program.task -> Program.task
(** [instantiate] a template task's instructions. *)
