(** Bench regression gating: diff two BENCH_*.json artifacts on their
    deterministic [makespan_us] rows, keyed (config, kernel).  A
    baseline row missing from the candidate is a regression; a row
    only the candidate has is informational. *)

type row = { r_config : string; r_kernel : string; r_makespan_us : float }

type status =
  | Unchanged
  | Improved of float  (** ratio new/old *)
  | Regressed of float  (** ratio new/old *)
  | Missing  (** baseline row absent from candidate — a regression *)
  | Added  (** candidate-only row — informational *)

type finding = {
  f_config : string;
  f_kernel : string;
  f_old : float option;
  f_new : float option;
  f_status : status;
}

type report = {
  tolerance : float;
  findings : finding list;
  regressions : int;  (** [Regressed] plus [Missing] findings *)
}

val default_tolerance : float
(** 0.05 — a 5% slowdown trips the gate. *)

val rows_of_string : string -> (row list, string) result

val compare_rows :
  ?tolerance:float -> baseline:row list -> candidate:row list -> unit -> report

val ok : report -> bool
val report_to_string : report -> string
