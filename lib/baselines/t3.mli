(** T3-style baseline: transparent tracking & triggering.

    Hardware tracks producer-tile completions and triggers the
    matching transfers, overlapping the collective with the unmodified
    kernel at the cost of a small per-tile tracking overhead:

      [t3 = launch + max(compute, comm) + tracking * tiles]

    Mirrors {!Nonoverlap}'s API; together they bracket the
    tile-centric runtime from below (ideal overlap, flat tracking tax)
    and above (fully serialized).  All times in µs. *)

open Tilelink_machine

val ag_gemm_time : Spec.t -> world_size:int -> m:int -> k:int -> n:int -> float
