(** Critical-path extraction over a run's causal span DAG
    (see {!Span}): walk back from the last-finishing span along gating
    predecessors, then charge wall-clock exactly once along the
    chronological path.  [sum charged + sum gaps + tail_slack =
    makespan] holds by construction. *)

type step = {
  span : Span.span;
  charged : float;  (** wall-clock this span uniquely accounts for *)
  gap_before : float;  (** idle time on the path before this span *)
  gap_same_rank : bool;
      (** gap sits on the previous path span's rank (or leads the run):
          contention rather than cross-rank straggler slack *)
}

type t = {
  path : step list;  (** chronological *)
  makespan : float;
  tail_slack : float;
}

val extract : makespan:float -> Span.span list -> t option
(** [None] on an empty span list.  The list must be a complete
    recorder output ({!Span.spans}): predecessor ids are resolved by
    position. *)

val rank_blame : t -> (int * float) list
(** Charged wall-clock per rank along the path, sorted by rank. *)

val key_blame : t -> (string * float) list
(** Blocked duration per signal key of the path's wait spans, largest
    first.  Reports which channels the critical chain sat blocked on —
    distinct from the exclusive charge, which telescopes onto the
    producer chain that caused the block. *)

val to_json : t -> Json.t

val perfetto_events : t -> Json.t list
(** Overlay events (duration slices + a flow chain + a process-name
    record under pid 9999) to append to a Perfetto export,
    highlighting the critical path on its own track. *)
