(** Operator-decomposition baseline (Async-TP PyTorch style): chunked
    two-stream pipelines with host-driven synchronization at every
    chunk boundary and wave-quantization losses on the chunked GEMMs. *)

open Tilelink_machine

val pipeline_makespan :
  comm_times:float list ->
  compute_times:float list ->
  host_sync:float ->
  launch:float ->
  float
(** Two-stream pipeline: comm chunks serialize, compute chunk i starts
    at [max (comm_done i) (compute_done (i-1)) + host_sync]. *)

val ag_gemm_time : Spec.t -> world_size:int -> m:int -> k:int -> n:int -> float
val gemm_rs_time : Spec.t -> world_size:int -> m:int -> k:int -> n:int -> float
val mlp_time :
  Spec.t -> world_size:int -> shape:Tilelink_workloads.Shapes.mlp -> float
