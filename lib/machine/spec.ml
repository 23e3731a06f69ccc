(* Hardware description records.

   All rates are in FLOP/µs or bytes/µs; all overheads in µs; dtype is
   assumed 2-byte (bf16) unless a caller overrides byte counts. *)

type gpu = {
  gpu_name : string;
  num_sms : int;                (* streaming multiprocessors *)
  flops_per_sm : float;         (* sustained tensor-core FLOP/µs per SM *)
  mac_efficiency : float;       (* large-tile fraction of peak reached *)
  hbm_bw : float;               (* bytes/µs aggregate HBM bandwidth *)
  dma_channels : int;           (* concurrent copy-engine channels *)
  tile_overhead : float;        (* prologue/epilogue per CTA, µs *)
  load_latency : float;         (* global->shared staging latency per
                                   tile operand, µs; hidden by
                                   multi-stage pipelining *)
}

type interconnect = {
  nvlink_gbps : float;          (* per-GPU egress over NVSwitch, GB/s *)
  nvlink_latency : float;       (* µs per transfer *)
  nic_gbps : float;             (* per-GPU share of inter-node NIC, GB/s *)
  nic_latency : float;          (* µs per transfer *)
}

type overheads = {
  kernel_launch : float;        (* host -> device launch, µs *)
  host_sync : float;            (* device -> host completion sync, µs *)
  collective_setup : float;     (* NCCL-style collective entry/exit, µs *)
  signal_notify : float;        (* release atomic + membar, µs *)
  signal_wait : float;          (* acquire spin entry cost, µs *)
  fusion_interference : float;
      (* multiplier (>= 1) on compute tiles when a fused kernel also
         runs communication on the same chip: L2 pollution, scheduler
         and HBM interference *)
}

type t = {
  gpu : gpu;
  interconnect : interconnect;
  overheads : overheads;
  gpus_per_node : int;
}

let pp ppf t =
  (* flops_per_sm is FLOP/µs; aggregate TFLOP/s = sms * per_sm * 1e6 / 1e12. *)
  Fmt.pf ppf
    "%s: %d SMs, %.0f TFLOP/s sustained, HBM %.0f GB/s, NVLink %.0f GB/s \
     @%.1fus, NIC %.0f GB/s @%.1fus, %d GPUs/node"
    t.gpu.gpu_name t.gpu.num_sms
    (float_of_int t.gpu.num_sms *. t.gpu.flops_per_sm /. 1e6)
    (t.gpu.hbm_bw /. 1e3)
    t.interconnect.nvlink_gbps t.interconnect.nvlink_latency
    t.interconnect.nic_gbps t.interconnect.nic_latency t.gpus_per_node

(* Exact textual identity of the machine model, for cache keys: every
   field, floats in hex so distinct calibrations never collide. *)
let fingerprint t =
  Printf.sprintf
    "gpu=%s,sms=%d,fps=%h,eff=%h,hbm=%h,dma=%d,tov=%h,ll=%h|ic=%h,%h,%h,%h|\
     ov=%h,%h,%h,%h,%h,%h|gpn=%d"
    t.gpu.gpu_name t.gpu.num_sms t.gpu.flops_per_sm t.gpu.mac_efficiency
    t.gpu.hbm_bw t.gpu.dma_channels t.gpu.tile_overhead t.gpu.load_latency
    t.interconnect.nvlink_gbps t.interconnect.nvlink_latency
    t.interconnect.nic_gbps t.interconnect.nic_latency
    t.overheads.kernel_launch t.overheads.host_sync
    t.overheads.collective_setup t.overheads.signal_notify
    t.overheads.signal_wait t.overheads.fusion_interference t.gpus_per_node
