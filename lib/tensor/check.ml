(* Tensor comparison for correctness tests: approximate and bitwise. *)

type report = {
  max_abs_err : float;
  max_rel_err : float;
  worst_index : int array;
  within : bool;
}

let compare ?(atol = 1e-9) ?(rtol = 1e-6) expected actual =
  if not (Shape.equal (Tensor.shape expected) (Tensor.shape actual)) then
    invalid_arg
      (Printf.sprintf "Check.compare: shape mismatch %s vs %s"
         (Shape.to_string (Tensor.shape expected))
         (Shape.to_string (Tensor.shape actual)));
  let e = Tensor.data expected and a = Tensor.data actual in
  let max_abs = ref 0.0 and max_rel = ref 0.0 and worst = ref 0 in
  let within = ref true in
  Array.iteri
    (fun i ev ->
      let av = a.(i) in
      let abs_err = Float.abs (ev -. av) in
      let rel_err = abs_err /. Float.max (Float.abs ev) 1e-30 in
      if abs_err > !max_abs then begin
        max_abs := abs_err;
        worst := i
      end;
      if rel_err > !max_rel then max_rel := rel_err;
      if abs_err > atol +. (rtol *. Float.abs ev) then within := false)
    e;
  {
    max_abs_err = !max_abs;
    max_rel_err = !max_rel;
    worst_index = Shape.index_of_offset (Tensor.shape expected) !worst;
    within = !within;
  }

let close ?atol ?rtol expected actual =
  (compare ?atol ?rtol expected actual).within

let bits_equal a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.data a) (Tensor.data b)

let pp_report ppf r =
  Fmt.pf ppf "max_abs=%.3e max_rel=%.3e at %s %s" r.max_abs_err r.max_rel_err
    (Shape.to_string (Array.of_list (Array.to_list r.worst_index)))
    (if r.within then "(ok)" else "(MISMATCH)")
