(** Non-overlapping baseline (cuBLAS + NCCL): serialized operator-
    centric collectives and full-chip compute kernels.  All times in
    µs. *)

open Tilelink_machine

val ag_gemm_time : Spec.t -> world_size:int -> m:int -> k:int -> n:int -> float
val gemm_rs_time : Spec.t -> world_size:int -> m:int -> k:int -> n:int -> float
val activation_time : Spec.t -> m:int -> i:int -> float
val mlp_time :
  Spec.t -> world_size:int -> shape:Tilelink_workloads.Shapes.mlp -> float
