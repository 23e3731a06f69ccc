(** Enriched Chrome/Perfetto trace export.

    Combines timeline spans with the telemetry journal to add flow
    events linking each producer notify to the consumer wait it
    released, counter tracks (outstanding signals, blocked waiters,
    per-rank egress bandwidth), and deadlock instants.  Open the output
    at https://ui.perfetto.dev or chrome://tracing. *)

val export :
  ?min_level:Journal.level ->
  ?extra:Json.t list ->
  trace:Tilelink_sim.Trace.t ->
  journal:Journal.t ->
  unit ->
  Json.t
(** Full event list; the egress-bandwidth counter track has 64 samples
    per rank.  [min_level] filters only the instant-event marks (the
    flow arrows and counter tracks are reconstructed from Debug-level
    entries regardless).  [extra] appends caller-supplied events, e.g.
    the critical-path overlay from {!Critpath.perfetto_events}. *)

val export_string :
  ?min_level:Journal.level ->
  ?extra:Json.t list ->
  trace:Tilelink_sim.Trace.t ->
  journal:Journal.t ->
  unit ->
  string
