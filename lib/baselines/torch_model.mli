(** PyTorch end-to-end baseline for Figure 11: every layer component
    non-overlapped, assembled component-for-component like the
    TileLink model. *)

open Tilelink_machine
module Model = Tilelink_workloads.Model

val torch_mlp_time :
  Spec.t -> world_size:int -> hidden:int -> intermediate:int -> float
val torch_layer_time : Spec.t -> Model.llm -> world_size:int -> float
val torch_model_time : Spec.t -> Model.llm -> world_size:int -> float
