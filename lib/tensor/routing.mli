(** MoE token routing: per-token top-k expert assignment.

    Drives both the reference MoE computation and the dynamic lookup
    tables of TileLink's backend mapping. *)

type t

val num_tokens : t -> int
val num_experts : t -> int
val topk : t -> int
val experts_of_token : t -> int -> int array
val weights_of_token : t -> int -> float array

val of_logits : Tensor.t -> topk:int -> t
val random : seed:int -> num_tokens:int -> num_experts:int -> topk:int -> t

val tokens_of_expert : t -> int -> (int * int) list
(** Tokens routed to an expert as (token, slot) pairs in token order. *)

val expert_load : t -> int array

type permutation = {
  entries : (int * int * int) array;  (** (expert, token, slot), grouped by expert *)
  segment_offsets : int array;  (** expert start rows, length E+1 *)
}

val permutation : t -> permutation
(** Every (expert, token, slot) once, grouped by expert in ascending
    order and, within an expert, in {!tokens_of_expert} order; one pass
    over the routing. *)
