(* Analytic kernel cost model.

   The discrete-event backend charges *per-tile* durations and lets
   wave quantization, SM contention and link queueing emerge from the
   simulation; this module only prices a single tile or a single
   memory pass.

   Calibration notes:
   - GEMM tile efficiency degrades below 128x128 because tensor-core
     MMA shapes and shared-memory staging under-fill; modeled as
     sqrt(min(1, d/128)) per dimension.  This is the "resource
     quantization inefficiency" that hurts decomposed kernels.
   - Memory-bound kernels saturate HBM with ~1/4 of the SMs; fewer
     SMs get a proportional share. *)

let dtype_bytes = 2.0 (* bf16 *)

let tile_dim_efficiency d = sqrt (Float.min 1.0 (float_of_int d /. 128.0))

let gemm_tile_efficiency ~tm ~tn =
  tile_dim_efficiency tm *. tile_dim_efficiency tn

(* Time for one CTA computing a [tm x tn] output tile over the full K
   reduction, on one SM. *)
let gemm_tile_time (spec : Spec.t) ~tm ~tn ~k =
  let flops = 2.0 *. float_of_int tm *. float_of_int tn *. float_of_int k in
  let rate =
    spec.gpu.flops_per_sm *. spec.gpu.mac_efficiency
    *. gemm_tile_efficiency ~tm ~tn
  in
  (flops /. rate) +. spec.gpu.tile_overhead

(* Attention tile: one CTA holding a [tq x d] query block consuming a
   [tkv x d] KV block (two GEMMs + online softmax; softmax cost folded
   into a 0.85 efficiency factor). *)
let attention_tile_time (spec : Spec.t) ~tq ~tkv ~d =
  let flops =
    4.0 *. float_of_int tq *. float_of_int tkv *. float_of_int d
  in
  let rate =
    spec.gpu.flops_per_sm *. spec.gpu.mac_efficiency *. 0.85
    *. gemm_tile_efficiency ~tm:tq ~tn:tkv
  in
  (flops /. rate) +. spec.gpu.tile_overhead

(* Whole GEMM kernel on [sms] SMs with a [tm x tn] CTA tile: wave
   quantization made explicit — ceil(tiles / sms) waves of one tile
   each.  This is the analytic counterpart of what the discrete-event
   backend produces when it schedules the same tiles on an SM pool. *)
let gemm_kernel_time (spec : Spec.t) ~sms ~m ~n ~k ~tm ~tn =
  if sms <= 0 then invalid_arg "Cost.gemm_kernel_time: sms";
  let tiles_m = (m + tm - 1) / tm and tiles_n = (n + tn - 1) / tn in
  let tiles = tiles_m * tiles_n in
  let waves = (tiles + sms - 1) / sms in
  float_of_int waves *. gemm_tile_time spec ~tm ~tn ~k

(* Effective HBM share for a kernel occupying [sms] SMs: bandwidth
   saturates at about a quarter of the chip. *)
let hbm_share (spec : Spec.t) ~sms =
  let saturating = Float.max 1.0 (float_of_int spec.gpu.num_sms /. 4.0) in
  spec.gpu.hbm_bw *. Float.min 1.0 (float_of_int sms /. saturating)

(* One pass of a memory-bound kernel moving [bytes] through HBM using
   [sms] SMs. *)
let memory_pass_time (spec : Spec.t) ~sms ~bytes =
  bytes /. hbm_share spec ~sms

(* A memory-bound *tile*: [rows x cols] elements, [passes] traversals
   (e.g. reduce = read+read+write = 3). *)
let memory_tile_time (spec : Spec.t) ~sms ~rows ~cols ~passes =
  let bytes =
    float_of_int rows *. float_of_int cols *. dtype_bytes
    *. float_of_int passes
  in
  memory_pass_time spec ~sms ~bytes +. (spec.gpu.tile_overhead /. 2.0)

(* Unfused ("PyTorch eager") attention: materializes the [sq x skv]
   score matrix in HBM, then softmax, then PV — three extra traversals
   of the score matrix on top of the two GEMMs.  This is what makes the
   Torch baseline of Figure 10 memory-bound at long context. *)
let unfused_attention_time (spec : Spec.t) ~batch_heads ~sq ~skv ~d =
  let fbh = float_of_int batch_heads in
  let gemm_flops = 4.0 *. fbh *. float_of_int sq *. float_of_int skv *. float_of_int d in
  let compute =
    gemm_flops
    /. (float_of_int spec.gpu.num_sms *. spec.gpu.flops_per_sm *. 0.7)
  in
  (* Eager PyTorch materializes the score matrix in fp32. *)
  let score_bytes = fbh *. float_of_int sq *. float_of_int skv *. 4.0 in
  (* write S, read S (softmax), write P, read P (PV): 4 traversals. *)
  let memory = 4.0 *. score_bytes /. spec.gpu.hbm_bw in
  compute +. memory +. (3.0 *. spec.overheads.kernel_launch)
