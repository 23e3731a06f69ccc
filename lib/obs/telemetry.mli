(** The telemetry handle instrumented layers thread through: a metrics
    registry, an event journal, and a causal span recorder.  Each half
    keeps its own enable switch ({!Metrics.set_enabled},
    {!Journal.set_enabled}, {!Span.set_enabled}); {!set_enabled} flips
    all three. *)

type t = { metrics : Metrics.t; journal : Journal.t; spans : Span.t }

val create : ?enabled:bool -> ?journal_capacity:int -> unit -> t

val spans_only : unit -> t
(** A handle whose metrics and journal halves are off: only spans are
    recorded.  For callers that read nothing but the spans (search
    candidates scored by their attribution, chaos trials), so a run
    pays for no histograms, gauges or journal entries.  Spans, and so
    attribution, are identical to a fully enabled handle's. *)

val metrics : t -> Metrics.t
val journal : t -> Journal.t
val spans : t -> Span.t

val enabled : t -> bool
(** [true] when any of the three halves records. *)

val set_enabled : t -> bool -> unit

val active : t option -> bool
(** The one guard hot paths use: [true] only for [Some t] with at
    least one half recording.  Inside the guard, work that feeds a
    single half (formatting gauge names, building journal events) is
    guarded on that half's own switch. *)
