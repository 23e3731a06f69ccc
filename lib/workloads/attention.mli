(** Sequence-parallel self-attention (Figure 6): host-side
    rank_copy_data AllGather of KV overlapped with a blockwise
    flash-attention consumer. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  batch_heads : int;  (** z = batch x heads *)
  seq : int;          (** global KV sequence length *)
  head_dim : int;
  world_size : int;
  causal : bool;
}

val s_per_rank : spec -> int
val alloc : spec -> seed:int -> Memory.t
val reference : Memory.t -> spec -> rank:int -> Tensor.t

type config = {
  q_tile : int;   (** query rows per consumer tile *)
  kv_tile : int;  (** KV rows consumed per flash step *)
}

val default_config : config

val program : ?config:config -> spec -> spec_gpu:Spec.t -> Program.t

val flash_only_time : Spec.t -> spec -> config:config -> float
(** Compute-only flash attention time (for overlap-ratio accounting). *)

val comm_only_time : Spec.t -> spec -> float
(** Communication-only KV AllGather time. *)
