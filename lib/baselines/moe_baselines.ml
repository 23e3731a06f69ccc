(* MoE baselines for Figure 9.

   - [cublas_*]: one GEMM kernel launch per expert, gather/scatter as
     separate memory-bound kernels, NCCL collectives.  With 32 experts
     the per-expert launches and wave-quantization losses dominate —
     this is the 10-20x-slower bar of Figure 9.
   - [cutlass_*]: a single grouped-GEMM kernel (no per-expert
     launches), but gather/scatter still run as separate passes.
   - [vllm_*]: gather/scatter fused into the grouped GEMM (the 9.8x
     fusion win the paper quotes), but no communication overlap.

   All share the operator-centric collectives of lib/comm. *)

open Tilelink_machine
open Tilelink_tensor
module Collective = Tilelink_comm.Collective
module Moe = Tilelink_workloads.Moe
module Sh = Tilelink_workloads.Shapes

let dtype = Cost.dtype_bytes

let spec_of_shape (shape : Sh.moe) ~world_size =
  {
    Moe.tokens = shape.Sh.moe_s;
    hidden = shape.Sh.moe_h;
    intermediate = shape.Sh.moe_i;
    experts = shape.Sh.experts;
    topk = shape.Sh.topk;
    world_size;
  }

let ag_time (spec : Spec.t) (moe : Moe.spec) =
  let bytes =
    float_of_int (moe.Moe.tokens / moe.Moe.world_size)
    *. float_of_int moe.Moe.hidden *. dtype
  in
  Collective.standalone_time spec ~world_size:moe.Moe.world_size
    ~kind:Collective.Allgather ~algo:Collective.Ring ~bytes_per_shard:bytes

let rs_time (spec : Spec.t) (moe : Moe.spec) =
  let bytes =
    float_of_int (moe.Moe.tokens / moe.Moe.world_size)
    *. float_of_int moe.Moe.hidden *. dtype
  in
  Collective.standalone_time spec ~world_size:moe.Moe.world_size
    ~kind:Collective.Reducescatter ~algo:Collective.Ring
    ~bytes_per_shard:bytes

(* A memory-bound gather/scatter pass over the permuted activation
   matrix: read + write. *)
let permute_pass_time (spec : Spec.t) (moe : Moe.spec) ~cols =
  spec.Spec.overheads.kernel_launch
  +. Cost.memory_pass_time spec ~sms:spec.Spec.gpu.num_sms
       ~bytes:
         (2.0
         *. float_of_int (moe.Moe.tokens * moe.Moe.topk)
         *. float_of_int cols *. dtype)

(* Top-k weighted reduction: read topk rows, write one. *)
let topk_reduce_time (spec : Spec.t) (moe : Moe.spec) =
  spec.Spec.overheads.kernel_launch
  +. Cost.memory_pass_time spec ~sms:spec.Spec.gpu.num_sms
       ~bytes:
         (float_of_int ((moe.Moe.topk + 1) * moe.Moe.tokens)
         *. float_of_int moe.Moe.hidden *. dtype)

(* One cuBLAS GEMM per expert, eager-PyTorch style: every expert pays
   mask construction + nonzero + index_select + GEMM + index_add — a
   handful of kernel launches, a host round trip, and two extra memory
   passes over its token batch — plus wave quantization on the (often
   tiny) expert GEMM itself.  This dispatch tax is what makes the
   cuBLAS+NCCL bars of Figure 9 collapse at E = 32. *)
let eager_launches_per_expert = 4.0

let per_expert_gemm_time (spec : Spec.t) route ~n ~k =
  let loads = Routing.expert_load route in
  Array.fold_left
    (fun acc count ->
      if count = 0 then acc
      else
        acc
        +. (eager_launches_per_expert *. spec.Spec.overheads.kernel_launch)
        +. spec.Spec.overheads.host_sync
        +. Cost.memory_pass_time spec ~sms:spec.Spec.gpu.num_sms
             ~bytes:(2.0 *. float_of_int count *. float_of_int k *. dtype)
        +. Cost.gemm_kernel_time spec ~sms:spec.Spec.gpu.num_sms ~m:count ~n
             ~k ~tm:128 ~tn:128)
    0.0 loads

(* Grouped GEMM: a single launch; tiles of all experts share waves. *)
let group_gemm_time (spec : Spec.t) route ~n ~k =
  let loads = Routing.expert_load route in
  let tiles =
    Array.fold_left
      (fun acc count ->
        acc + (((count + 127) / 128) * ((n + 127) / 128)))
      0 loads
  in
  let waves = (tiles + spec.Spec.gpu.num_sms - 1) / spec.Spec.gpu.num_sms in
  spec.Spec.overheads.kernel_launch
  +. (float_of_int waves *. Cost.gemm_tile_time spec ~tm:128 ~tn:128 ~k)

(* ---- Part 1: AG + Gather + GroupGEMM ---- *)

let ipr moe = moe.Moe.intermediate / moe.Moe.world_size

let cublas_part1 (spec : Spec.t) moe route =
  ag_time spec moe
  +. permute_pass_time spec moe ~cols:moe.Moe.hidden
  +. per_expert_gemm_time spec route ~n:(ipr moe) ~k:moe.Moe.hidden
  +. spec.Spec.overheads.host_sync

let cutlass_part1 (spec : Spec.t) moe route =
  ag_time spec moe
  +. permute_pass_time spec moe ~cols:moe.Moe.hidden
  +. group_gemm_time spec route ~n:(ipr moe) ~k:moe.Moe.hidden
  +. spec.Spec.overheads.host_sync

let vllm_part1 (spec : Spec.t) moe route =
  ag_time spec moe
  +. group_gemm_time spec route ~n:(ipr moe) ~k:moe.Moe.hidden
  +. spec.Spec.overheads.host_sync

(* ---- Part 2: GroupGEMM + Scatter + TopkReduce + RS ---- *)

let cublas_part2 (spec : Spec.t) moe route =
  per_expert_gemm_time spec route ~n:moe.Moe.hidden ~k:(ipr moe)
  +. permute_pass_time spec moe ~cols:moe.Moe.hidden
  +. topk_reduce_time spec moe
  +. rs_time spec moe
  +. spec.Spec.overheads.host_sync

let cutlass_part2 (spec : Spec.t) moe route =
  group_gemm_time spec route ~n:moe.Moe.hidden ~k:(ipr moe)
  +. permute_pass_time spec moe ~cols:moe.Moe.hidden
  +. topk_reduce_time spec moe
  +. rs_time spec moe
  +. spec.Spec.overheads.host_sync

let vllm_part2 (spec : Spec.t) moe route =
  group_gemm_time spec route ~n:moe.Moe.hidden ~k:(ipr moe)
  +. topk_reduce_time spec moe
  +. rs_time spec moe
  +. spec.Spec.overheads.host_sync

(* Intermediate activation between the parts (same for all methods). *)
let act_time (spec : Spec.t) moe =
  spec.Spec.overheads.kernel_launch
  +. Cost.memory_pass_time spec ~sms:spec.Spec.gpu.num_sms
       ~bytes:
         (2.0
         *. float_of_int (moe.Moe.tokens * moe.Moe.topk)
         *. float_of_int (ipr moe) *. dtype)

let cublas_full spec moe route =
  cublas_part1 spec moe route +. act_time spec moe
  +. cublas_part2 spec moe route

let vllm_full spec moe route =
  vllm_part1 spec moe route +. act_time spec moe
  +. vllm_part2 spec moe route
