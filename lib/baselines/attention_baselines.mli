(** Attention baselines for Figure 10: eager PyTorch (AG + unfused
    attention) and RingAttention (per-step blockwise attention with
    P2P exchange). *)

open Tilelink_machine
module Attention = Tilelink_workloads.Attention

val kv_allgather_time : Spec.t -> Attention.spec -> float
val torch_time : Spec.t -> Attention.spec -> float
val ring_attention_time : Spec.t -> Attention.spec -> float

type overlap_report = {
  comp_only : float;
  comm_only : float;
  overlapped : float;
  ratio : float;  (** (comp + comm - overlapped) / comm, §7.2 *)
}

val overlap_report :
  comp_only:float -> comm_only:float -> overlapped:float -> overlap_report
