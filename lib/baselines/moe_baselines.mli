(** MoE baselines for Figure 9: eager per-expert cuBLAS, unfused
    grouped-GEMM CUTLASS, and vLLM-style fused grouped GEMM — all with
    operator-centric collectives and no overlap. *)

open Tilelink_machine
open Tilelink_tensor
module Moe = Tilelink_workloads.Moe

val spec_of_shape :
  Tilelink_workloads.Shapes.moe -> world_size:int -> Moe.spec

val per_expert_gemm_time : Spec.t -> Routing.t -> n:int -> k:int -> float
val group_gemm_time : Spec.t -> Routing.t -> n:int -> k:int -> float
val act_time : Spec.t -> Moe.spec -> float

val cublas_part1 : Spec.t -> Moe.spec -> Routing.t -> float
val cutlass_part1 : Spec.t -> Moe.spec -> Routing.t -> float
val vllm_part1 : Spec.t -> Moe.spec -> Routing.t -> float

val cublas_part2 : Spec.t -> Moe.spec -> Routing.t -> float
val cutlass_part2 : Spec.t -> Moe.spec -> Routing.t -> float
val vllm_part2 : Spec.t -> Moe.spec -> Routing.t -> float

val cublas_full : Spec.t -> Moe.spec -> Routing.t -> float
val vllm_full : Spec.t -> Moe.spec -> Routing.t -> float
