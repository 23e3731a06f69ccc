(** Hardware description records (rates in FLOP/µs and bytes/µs,
    overheads in µs). *)

type gpu = {
  gpu_name : string;
  num_sms : int;
  flops_per_sm : float;
  mac_efficiency : float;
  hbm_bw : float;
  dma_channels : int;
  tile_overhead : float;
  load_latency : float;
}

type interconnect = {
  nvlink_gbps : float;
  nvlink_latency : float;
  nic_gbps : float;
  nic_latency : float;
}

type overheads = {
  kernel_launch : float;
  host_sync : float;
  collective_setup : float;
  signal_notify : float;
  signal_wait : float;
  fusion_interference : float;
}

type t = {
  gpu : gpu;
  interconnect : interconnect;
  overheads : overheads;
  gpus_per_node : int;
}

val pp : Format.formatter -> t -> unit

val fingerprint : t -> string
(** Exact textual identity of every field (floats in hex), for
    evaluation-cache keys; distinct calibrations never collide. *)
