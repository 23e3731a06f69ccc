(** Expert-parallel MoE with overlapped All2All dispatch and combine:
    experts are sharded across ranks, token-slots travel in
    (expert, source-rank) segments, and segment-aligned FFN tiles start
    as soon as their segment lands. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  tokens : int;
  hidden : int;
  intermediate : int;
  experts : int;
  topk : int;
  world_size : int;
}

val expert_owner : spec -> int -> int
val routing : spec -> seed:int -> Routing.t

type segment = {
  expert : int;
  src : int;
  entries : (int * int) list;
  recv_lo : int;
}

type layout = {
  segments_of_rank : segment list array;
  recv_rows : int array;
}

val build_layout : spec -> Routing.t -> layout

val alloc : spec -> Routing.t -> seed:int -> Memory.t * layout
val reference : Memory.t -> spec -> Routing.t -> rank:int -> Tensor.t

type config = {
  tile_rows : int;
  comm_binding : Design_space.resource_binding;
}

val program : ?config:config -> spec -> Routing.t -> spec_gpu:Spec.t -> Program.t
