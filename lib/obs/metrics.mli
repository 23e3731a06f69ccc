(** Metrics registry: named counters, gauges, and log-bucketed
    histograms with exact p50/p95/p99 summaries.

    Every recording entry point checks the [enabled] flag first, so a
    disabled registry costs the instrumented hot paths one branch and
    records nothing. *)

type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** {2 Recording} *)

val inc : t -> ?by:int -> string -> unit
(** Bump a counter.  Counters are monotonic: negative [by] raises. *)

val set_gauge : t -> string -> float -> unit
val add_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record one histogram sample.  Buckets are log-spaced powers of two:
    bucket 0 covers (-inf, 1], bucket i covers (2^(i-1), 2^i] up to
    2^26, then +Inf. *)

(** {2 Reading} *)

val counter_value : t -> string -> int option
val gauge_value : t -> string -> float option

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summary : t -> string -> summary option
(** Exact percentiles over the recorded samples
    ({!Tilelink_sim.Stats.percentile}); [None] if the histogram is
    absent or empty. *)

val merged_summary : t -> prefix:string -> summary option
(** Pool the samples of every histogram whose name starts with
    [prefix] (e.g. ["wait_us."]) into one summary. *)

val counter_names : t -> string list
val gauge_names : t -> string list
val histogram_names : t -> string list
(** All sorted, for deterministic exports. *)

val bucket_index : float -> int
(** Bucket a value falls into — exposed for boundary tests. *)

(** {2 Exporters} *)

val to_prometheus : t -> string
(** Prometheus text exposition format; names are prefixed with
    [tilelink_] and sanitized to [[a-zA-Z0-9_:]]. *)

val to_json : t -> Json.t
