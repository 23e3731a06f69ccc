(** BlockChannel: the tile-centric mapping context threaded through
    kernel builders (rank, world size, mapping, channel layout). *)

type t

val create :
  ?channel_base:int ->
  ?peer_channels:int ->
  rank:int ->
  world_size:int ->
  Mapping.t ->
  t

val per_rank : ?channel_base:int -> world_size:int -> Mapping.t -> t array
(** The contexts of ranks [0 .. world_size - 1] over one mapping, built
    once per program: element [r] equals [create ?channel_base ~rank:r],
    and every rank shares one set of copy labels. *)

val rank : t -> int
val world_size : t -> int
val mapping : t -> Mapping.t
val channel_base : t -> int
val peer_channels : t -> int
val channel_extent : t -> int
val lower_config : t -> Lower.config

val lower :
  ?telemetry:Tilelink_obs.Telemetry.t -> t -> Primitive.t list -> Instr.t list
(** Lower statements in this context, offsetting producer/consumer
    channel ids by [channel_base].  With [telemetry], records a
    [Channel_acquire] journal event for the occupied channel range and
    counts the wait/notify instructions the primitives lowered into
    ([lowered.waits] / [lowered.notifies]). *)

type task = { label : string; stmts : Primitive.t list }
(** A task before lowering: its label and statements, which hold no
    rank.  Build one per tile of a program and lower it on each rank
    that runs the tile. *)

val stage_labels :
  stages:int -> tiles:int -> (int -> int -> string) -> string array array
(** [(stage_labels ~stages ~tiles fmt).(s).(k)] is [fmt s k]: the task
    labels of a ring with [stages] stages of [tiles] tiles, built once
    per program and shared by every rank. *)

val lower_task :
  ?telemetry:Tilelink_obs.Telemetry.t -> t -> task -> Program.task
(** [lower] the statements under the task's label. *)
