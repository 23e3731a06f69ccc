(** Dense linear algebra reference kernels. *)

val gemm :
  ?accumulate:bool ->
  ?out:Tensor.t ->
  ?block:int ->
  Tensor.t ->
  Tensor.t ->
  Tensor.t
(** [gemm a b] with [a : [m,k]], [b : [k,n]].  With [~out] writes (or
    with [~accumulate:true] adds) into the given tensor.

    Runs a register-blocked kernel: a 2-row x 4-column block of the
    output stays in local floats for a whole k-panel while a packed copy
    of B's 4-column strip streams past it (no packing when [m < 2]).
    Per output element it performs the same additions, in the same
    ascending-k order and with the same per-[(i, k)] [a <> 0.0] skip, as
    {!gemm_naive}, so results are bit-identical to it.

    [~block > 0] is the edge of ascending k-panels: the output block is
    stored and reloaded between panels, so every block edge is
    bit-identical to the default ([block = 0], one panel) — a pure
    speed knob, searched by the autotuner as
    {!Design_space.config.micro_block}.  Safe to call from several
    domains at once on shared inputs: all scratch is per call. *)

val gemm_tile :
  out:Tensor.t ->
  rows:int * int ->
  cols:int * int ->
  ?block:int ->
  Tensor.t ->
  Tensor.t ->
  unit
(** [gemm_tile ~out ~rows:(lo, hi) ~cols:(clo, chi) a b] overwrites
    [out]'s block [[lo, hi) x [clo, chi)] with
    [a[lo:hi, :] * b[:, clo:chi]] in place, leaving every other element
    of [out] untouched.  It runs {!gemm}'s kernel at offsets, so the
    block is bit-identical to
    [gemm (row_slice a lo hi) (col_slice b clo chi)] — without copying
    either operand or the result.  [a : [_, k]], [b : [k, _]]; the row
    range must lie inside [a] and [out], the column range inside [b]
    and [out] ([Invalid_argument] otherwise).  [?block] as in {!gemm}. *)

val gemm_naive :
  ?accumulate:bool -> ?out:Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** The fully bounds-checked textbook i-k-j loop: the bit-level ground
    truth that [gemm] and [gemm_tile] (at every block size) must
    reproduce exactly.
    Kept as the scalar reference for the sanity checker and as the
    baseline side of the kernel benchmarks. *)

val group_gemm : (Tensor.t * Tensor.t) list -> Tensor.t list
(** Per-group GEMMs with possibly different row counts (MoE). *)

val batch_gemm : Tensor.t -> Tensor.t -> Tensor.t
(** [a : [B,M,K]], [b : [B,K,N]] -> [B,M,N]. *)

val gemm_flops : m:int -> n:int -> k:int -> float
