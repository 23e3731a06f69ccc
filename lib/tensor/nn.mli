(** Neural-network reference operators. *)

val silu : float -> float
val gelu : float -> float

type activation = Silu | Gelu

val apply_activation : activation -> float -> float

val gated_activation : activation -> Tensor.t -> Tensor.t
(** [gated_activation act gate_up] with [gate_up : [m, 2i]] packing
    gate and up halves side by side; returns [act(gate) * up : [m,i]]. *)

val softmax_rows : Tensor.t -> Tensor.t

val topk : Tensor.t -> k:int -> int array array
(** Per-row top-k column indices, ties broken toward lower index. *)

type mask = No_mask | Causal of { q_offset : int }

val attention : ?mask:mask -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** Monolithic scaled-dot-product attention for one head:
    [q:[m,d]] [k:[s,d]] [v:[s,d]] -> [[m,d]]. *)

(** Online-softmax state for blockwise (flash) attention; KV blocks may
    arrive in any order. *)
module Flash : sig
  type t

  val create : ?mask:mask -> m:int -> d:int -> unit -> t

  val update : t -> Tensor.t -> Tensor.t -> Tensor.t -> kv_offset:int -> unit
  (** [update state q k_block v_block ~kv_offset] folds in the KV block
      at sequence offset [kv_offset]: [q : [m, d]], [k_block] and
      [v_block : [block, d]] ([Invalid_argument] otherwise).  P·V goes
      through {!Linalg.gemm} with [~accumulate:true] into the running
      output, so per element it performs the same additions in the same
      ascending-key order as a scalar loop over the unmasked keys.  One
      divergence remains: an unmasked probability that underflows to
      exactly [0.0] is skipped like a masked one, where the scalar loop
      added [0.0 *. v]; that can change the sign of a zero output (or,
      with an infinite or NaN [v], whether it turns NaN). *)

  val finish : t -> Tensor.t
  (** The normalised output [[m, d]]; rows that saw no unmasked key
      are zero. *)
end

val flash_attention :
  ?mask:mask -> ?block:int -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
