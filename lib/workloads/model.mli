(** End-to-end LLM assembly for Figure 11: eight models (five dense,
    three MoE), batch 4 x seq 8192, tensor parallel in a node, data
    parallel across nodes. *)

open Tilelink_machine

type ffn = Dense | Moe_ffn of { experts : int; topk : int; shared_i : int }

type llm = {
  model_name : string;
  layers : int;
  hidden : int;
  intermediate : int;
  heads : int;
  head_dim : int;
  ffn : ffn;
}

val models : llm list
val tokens : int
val is_moe : llm -> bool
val layer_params : llm -> float

val attention_spec : llm -> world_size:int -> Attention.spec
val attention_config : Attention.config
val moe_spec : llm -> experts:int -> topk:int -> world_size:int -> Moe.spec

val tilelink_model_time : Spec.t -> llm -> world_size:int -> float

val two_node_time :
  Spec.t -> llm -> world_size:int -> single_node_time:float -> float
