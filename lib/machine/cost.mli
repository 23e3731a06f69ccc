(** Analytic per-tile kernel cost model (times in µs, sizes in
    elements unless stated). *)

val dtype_bytes : float

val gemm_tile_efficiency : tm:int -> tn:int -> float
(** Fraction of sustained throughput reached by a [tm x tn] tile; 1.0
    at 128x128 and above, degrading for smaller tiles. *)

val gemm_tile_time : Spec.t -> tm:int -> tn:int -> k:int -> float
(** One CTA computing a [tm x tn] output tile over the full K. *)

val attention_tile_time : Spec.t -> tq:int -> tkv:int -> d:int -> float

val gemm_kernel_time :
  Spec.t -> sms:int -> m:int -> n:int -> k:int -> tm:int -> tn:int -> float
(** Whole GEMM kernel: ceil(tiles/sms) waves of [gemm_tile_time]. *)

val hbm_share : Spec.t -> sms:int -> float
val memory_pass_time : Spec.t -> sms:int -> bytes:float -> float
val memory_tile_time :
  Spec.t -> sms:int -> rows:int -> cols:int -> passes:int -> float

val unfused_attention_time :
  Spec.t -> batch_heads:int -> sq:int -> skv:int -> d:int -> float
(** Eager (non-flash) attention materializing the score matrix. *)
