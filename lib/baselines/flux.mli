(** FLUX-style fusion baseline: the *coupled* point of the design
    space (communication inherits the GEMM's tiling and order, data
    movement on SM-resident copy CTAs), executed by the same runtime
    as TileLink, with a hand-tuned mainloop bonus. *)

open Tilelink_core
open Tilelink_machine

val ag_gemm_config : world_size:int -> Design_space.config

val ag_gemm_time : Spec.t -> world_size:int -> m:int -> k:int -> n:int -> float
val gemm_rs_time : Spec.t -> world_size:int -> m:int -> k:int -> n:int -> float
val mlp_time :
  Spec.t -> world_size:int -> shape:Tilelink_workloads.Shapes.mlp -> float
