(** RingAttention built from tile-centric primitives: double-buffered
    KV rotation with peer arrival/consumption signals, numerically
    validated against the same references as the AG-based attention. *)

open Tilelink_core
open Tilelink_machine

type config = {
  q_tile : int;
  comm_sms : int;  (** worker cap of the ring-send role *)
}

val segment_at : Attention.spec -> rank:int -> step:int -> int
(** KV segment held by [rank] at ring [step]. *)

val alloc : Attention.spec -> seed:int -> Memory.t
(** Attention buffers plus the two ring slots per rank. *)

val reference : Memory.t -> Attention.spec -> rank:int -> Tilelink_tensor.Tensor.t

val program : ?config:config -> Attention.spec -> spec_gpu:Spec.t -> Program.t
