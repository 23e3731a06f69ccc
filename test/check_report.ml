(* A [Check.compare] report for test failure messages. *)
let pp ppf (r : Tilelink_tensor.Check.report) =
  Fmt.pf ppf "max_abs=%.3e max_rel=%.3e at %s %s" r.max_abs_err r.max_rel_err
    (Tilelink_tensor.Shape.to_string r.worst_index)
    (if r.within then "(ok)" else "(MISMATCH)")
