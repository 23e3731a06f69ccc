(** Tensor comparison for correctness tests: approximate and bitwise. *)

type report = {
  max_abs_err : float;
  max_rel_err : float;
  worst_index : int array;
  within : bool;
}

val compare : ?atol:float -> ?rtol:float -> Tensor.t -> Tensor.t -> report
(** [compare expected actual]; [within] holds when every finite pair
    obeys [|e - a| <= atol + rtol * |e|] and every other pair is in one
    class: both NaN, or the same infinity.  The first pair that is not
    is the [worst_index], with infinite [max_abs_err] and
    [max_rel_err]. *)

val close : ?atol:float -> ?rtol:float -> Tensor.t -> Tensor.t -> bool

val bits_equal : Tensor.t -> Tensor.t -> bool
(** Same shape and every element bit for bit: no tolerance, and [-0.]
    differs from [0.] while a NaN equals the same NaN. *)

val pp_report : Format.formatter -> report -> unit
