(** Tensor-parallel MoE kernels with dynamic tile-centric mapping
    (Figure 5 of the paper): AG + Gather + GroupGEMM, and the
    three-stage GroupGEMM + Scatter + TopkReduce + ring ReduceScatter
    chain.  To profile either part, hand the built program to
    {!Profiled.run}. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  tokens : int;        (** M: global token count *)
  hidden : int;        (** H *)
  intermediate : int;  (** I per expert, before the TP split *)
  experts : int;
  topk : int;
  world_size : int;
}

val permuted_rows : spec -> int

val routing : spec -> seed:int -> Routing.t
(** Deterministic routing shared by every rank. *)

val expert_tiles :
  Routing.permutation -> tile_rows:int -> (int * int * int) list
(** Expert-aligned 1-D tiling of the permuted row space:
    (expert, row_lo, row_hi); tiles never cross expert boundaries. *)

(** {2 Part 1: AG + Gather + GroupGEMM} *)

type part1_config = {
  comm_tile_rows : int;
  group_tile_rows : int;
  comm_binding : Design_space.resource_binding;
}

val part1_alloc : spec -> seed:int -> Memory.t
val part1_reference : Memory.t -> spec -> Routing.t -> rank:int -> Tensor.t

val part1_program :
  ?config:part1_config -> spec -> Routing.t -> spec_gpu:Spec.t -> Program.t

(** {2 Part 2: GroupGEMM + Scatter + TopkReduce + ring RS} *)

type part2_config = {
  gg_tile_rows : int;
  reduce_tile_rows : int;
  rs_tile_rows : int;
  reduce_sms : int;  (** worker cap of the TopkReduce role *)
  rs_sms : int;      (** worker cap of the ring-RS role *)
}

val default_part2_config : part2_config
val part2_alloc : spec -> seed:int -> Memory.t
val part2_reference : Memory.t -> spec -> Routing.t -> rank:int -> Tensor.t

val part2_program :
  ?config:part2_config -> spec -> Routing.t -> spec_gpu:Spec.t -> Program.t
