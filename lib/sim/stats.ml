(* Small numeric helpers shared by benches and reports. *)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value"
          else acc +. log x)
        0.0 xs
    in
    exp (log_sum /. float_of_int (List.length xs))

(* NaN is rejected rather than propagated: [Float.min]/[Float.max]
   silently poison the fold and [Float.compare] sorts NaN last, so a
   single bad sample would corrupt p99/max in BENCH and chaos summaries
   without any visible error.  Matching the empty-list behaviour, a NaN
   sample is caller error. *)
let reject_nan who xs =
  if List.exists Float.is_nan xs then
    invalid_arg (Printf.sprintf "Stats.%s: NaN sample" who)

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty"
  | x :: xs as all ->
    reject_nan "minimum" all;
    List.fold_left Float.min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty"
  | x :: xs as all ->
    reject_nan "maximum" all;
    List.fold_left Float.max x xs

(* Nearest-rank percentile (the classic "ceil(p/100 * n)-th smallest"
   definition): exact for the samples given, no interpolation, so p50 of
   [1;2;3;4] is 2 rather than 2.5.  Edge cases: [p <= 0] returns the
   minimum, [p >= 100] the maximum, and the empty list is an error
   because no rank exists. *)
let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty"
  | xs ->
    reject_nan "percentile" xs;
    let sorted = List.sort Float.compare xs in
    let n = List.length sorted in
    let rank =
      if p <= 0.0 then 1
      else if p >= 100.0 then n
      else
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        max 1 (min n r)
    in
    List.nth sorted (rank - 1)
