(** Model-level (pipeline) parallelism from tile-centric primitives —
    the paper's future-work direction (§7.4).  One rank per stage;
    micro-batch tiles flow stage to stage through tile pushes and
    producer/consumer signals, so sends overlap the next tile's
    compute. *)

open Tilelink_core
open Tilelink_machine

type spec = {
  stages : int;
  micro_batches : int;
  micro_rows : int;
  width : int;
}

val alloc : spec -> seed:int -> Memory.t
(** Per-stage weights and buffers; the global input lives on stage 0. *)

val reference : Memory.t -> spec -> Tilelink_tensor.Tensor.t
(** Chained GEMM through every stage's weights. *)

type config = { tile_rows : int; comm_sms : int }

val program : ?config:config -> spec -> spec_gpu:Spec.t -> Program.t

val serial_time : Spec.t -> spec -> float
(** Non-pipelined stage-after-stage execution, for comparison. *)
