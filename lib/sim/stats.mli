(** Small numeric helpers shared by benches and reports. *)

val mean : float list -> float
val geomean : float list -> float

val minimum : float list -> float
(** Raises [Invalid_argument] on the empty list or any NaN sample
    (NaN would silently poison the fold). *)

val maximum : float list -> float
(** Raises [Invalid_argument] on the empty list or any NaN sample. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the nearest-rank p-th percentile of [xs]: the
    [ceil (p/100 * n)]-th smallest sample, with no interpolation.
    [p <= 0.] yields the minimum, [p >= 100.] the maximum.  Raises
    [Invalid_argument] on the empty list and on any NaN sample (NaN
    sorts last under [Float.compare] and would corrupt p99/max). *)
