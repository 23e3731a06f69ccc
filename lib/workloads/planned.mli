(** Planner-built workload variants: the operator graphs, allocators
    and references the auto-overlap planner is exercised against.

    Each family mirrors (or extends) a workload of the suite — the MLP
    graph is {!Mlp.ag_gemm_graph}, so {!Mlp.ag_gemm_alloc} and
    {!Mlp.ag_gemm_reference} apply verbatim.  The fused graph is
    deliberately {e not} in the suite: it is the "new operator graph"
    acceptance case. *)

open Tilelink_core

(** {2 MLP: AllGather + GEMM (mirrors {!Mlp})} *)

val mlp_graph : Mlp.ag_gemm_spec -> Planner.graph
(** [Mlp.ag_gemm_graph ~name:"planned_ag_gemm"]: one [Gemm] consumer
    writing ["y"], weights ["w"] — the buffers {!Mlp.ag_gemm_alloc}
    binds and {!Mlp.ag_gemm_reference} checks. *)

(** {2 Softmax: AllGather + row softmax}

    Buffers per rank: ["x_shard"] [m/world, k], ["x_full"] [m, k],
    ["p"] [m, k] output. *)

val softmax_graph : m:int -> k:int -> world:int -> Planner.graph
val softmax_alloc : m:int -> k:int -> world:int -> seed:int -> Memory.t

val softmax_reference :
  Memory.t -> m:int -> world:int -> Tilelink_tensor.Tensor.t
(** [Planner.softmax_rows] of the gathered shards — shares the row
    kernel with the synthesized programs, so agreement is
    bit-identical. *)

(** {2 MoE dense-FFN proxy: AllGather + two parallel GEMMs}

    The gate/up projections of a dense FFN read the same gathered
    activations; the planner must schedule two consumers against one
    producer.  Buffers per rank: ["x_shard"], ["x_full"], weights
    ["w_gate"]/["w_up"] [k, n], outputs ["h_gate"]/["h_up"] [m, n]. *)

val moe_graph : m:int -> k:int -> n:int -> world:int -> Planner.graph
val moe_alloc : m:int -> k:int -> n:int -> world:int -> seed:int -> Memory.t

val moe_reference :
  Memory.t -> weights:string -> rank:int -> Tilelink_tensor.Tensor.t
(** Reference for one of the two projections ([weights] is ["w_gate"]
    or ["w_up"]). *)

(** {2 Fused GEMM + softmax (novel graph, not in the suite)}

    A [Gemm] consumer (["y"], weights ["w"]) and a [Softmax_rows]
    consumer (["p"]) share the gathered input: the planner derives the
    whole protocol for an operator graph no hand-written kernel
    covers. *)

val fused_graph : Mlp.ag_gemm_spec -> Planner.graph
val fused_alloc : Mlp.ag_gemm_spec -> seed:int -> Memory.t

val fused_gemm_reference :
  Memory.t -> Mlp.ag_gemm_spec -> rank:int -> Tilelink_tensor.Tensor.t

val fused_softmax_reference :
  Memory.t -> Mlp.ag_gemm_spec -> Tilelink_tensor.Tensor.t

(** {2 Graphs by name (CLI)} *)

type family = Fam_mlp | Fam_softmax | Fam_moe | Fam_fused

val family_of_string : string -> family option
val family_names : string list

val graph : family -> m:int -> k:int -> n:int -> world:int -> Planner.graph
(** The operator graph of any family at the given shape ([n] is ignored
    by [Fam_softmax]).  Allocates no buffers: planning needs only the
    graph, and a paper-shape family's buffers run to gigabytes. *)
