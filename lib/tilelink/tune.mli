(** Design-space search: evaluate candidates under the simulator and
    keep the fastest, optionally fanning out over a domain pool and
    short-circuiting through an evaluation cache. *)

type 'a evaluation = {
  candidate : 'a;
  config : Design_space.config;
  time : float;
  exposed_comm_us : float option;
      (** exposed-communication blame (µs on the critical path) from
          the causal profiler; [Some] for {!search_planned} scores that
          tie the best makespan and {!search_programs} candidates
          evaluated with [~blame:true], [None] for scalar {!search}
          evaluators, {!search_programs} evaluations without
          [~blame:true], {!search_planned} scores that do not tie the
          best, and cache hits on entries stored without blame *)
}

type score = {
  config : Design_space.config;
  time : float;
  exposed_comm_us : float option;
}
(** What the search keeps of every candidate but the winner: its
    design-space point and measurements, never the built candidate. *)

type 'a outcome = {
  best : 'a evaluation;
      (** the winner, the only evaluation that holds its built
          candidate *)
  evaluated : score list;  (** in candidate order, both paths *)
  pruned : int;
      (** candidates {!search_planned} never simulated because their
          makespan lower bound ({!Bound.makespan}) exceeds a known
          makespan; always 0 for {!search} and {!search_programs}.
          [List.length evaluated + pruned + skipped] is the candidate
          count. *)
  skipped : int;
      (** total skips, [= build + invalid + deadlock + race] *)
  skipped_build : int;
      (** [Invalid_argument] while building (bad tile/extent combos) *)
  skipped_invalid : int;  (** [Invalid_argument] while evaluating *)
  skipped_deadlock : int;
      (** {!Tilelink_sim.Engine.Deadlock} while evaluating *)
  skipped_race : int;
      (** rejected by the static protocol analysis before evaluation *)
  cache_hits : int;  (** candidates served from the cache *)
  cache_misses : int;  (** candidates that had to be evaluated *)
}

val search :
  ?pool:Tilelink_exec.Pool.t ->
  ?cache:Tilelink_exec.Cache.t ->
  ?cache_key:(Design_space.config -> string) ->
  ?analyze:('a -> (unit, string) result) ->
  build:(Design_space.config -> 'a) ->
  evaluate:('a -> float) ->
  Design_space.config list ->
  'a outcome option
(** With [pool], candidates evaluate in parallel; [build]/[evaluate]
    must then confine mutable state to their own invocation (fresh
    cluster per call).  The outcome is identical to the sequential
    path: [evaluated] is in candidate order and [best] is the earliest
    strict minimum.  Each built candidate is dropped once it has been
    scored unless it leads the search so far.  Caching needs both
    [cache] and [cache_key]; only successful evaluations are stored.
    A hit on an entry this process stored ({!Tilelink_exec.Cache.written})
    is scored without calling [build] or [analyze]; if it wins, the
    winner is built once after the search.  Searches that share a
    cache and key space must therefore pass the same [analyze].  A hit
    on an entry loaded from a cache file builds and runs [analyze]
    before the stored time replays, as does every miss: a failing
    candidate counts as [skipped_race] and is neither evaluated nor
    served from cache. *)

val search_programs :
  ?pool:Tilelink_exec.Pool.t ->
  ?cache:Tilelink_exec.Cache.t ->
  ?blame:bool ->
  workload:string ->
  build:(Design_space.config -> Program.t) ->
  make_cluster:(unit -> Tilelink_machine.Cluster.t) ->
  Design_space.config list ->
  Program.t outcome option
(** Program-valued candidates, simulated on a fresh cluster built by
    [make_cluster] inside each evaluating task (simulated clusters are
    single-shot and must stay domain-confined).  Cache keys fingerprint
    [workload] — which must therefore identify the kernel {e and}
    shape, and differ between builders that share a cache — together
    with the machine spec, world size and config.  Every built program
    is pre-flighted through {!Analyzer.check_message};
    statically-broken candidates count as [skipped_race].  An entry
    this process stored is thus always built and analyzer-clean, and a
    hit on it skips both.

    By default ([blame = false]) a candidate is scored by the makespan
    of one run without telemetry, and a fresh evaluation carries
    [exposed_comm_us = None].  With [~blame:true] the run also records
    spans, and each fresh evaluation carries its exposed-communication
    blame; pass it only when the caller reads or ranks by blame, since
    recording spans nearly quadruples what the simulator promotes to
    the major heap per event.  [blame] never changes the times, the winner or any count,
    and cache keys ignore it: a hit replays whatever blame its entry
    stored, so a blame-reading search reports [None] for an entry a
    blame-less one wrote. *)

val search_planned :
  ?pool:Tilelink_exec.Pool.t ->
  ?cache:Tilelink_exec.Cache.t ->
  workload:string ->
  fingerprint:('c -> string) ->
  config_of:('c -> Design_space.config) ->
  build:('c -> Program.t) ->
  make_cluster:(unit -> Tilelink_machine.Cluster.t) ->
  'c list ->
  ('c * Program.t) outcome option
(** The planner's entry point: candidates of an arbitrary type that
    embed a design-space point ([config_of], recorded in each
    evaluation) and synthesize to a program ([build]).  [fingerprint]
    must cover every candidate axis beyond the embedded config
    (transfer mode, chunk count, ...) so cache keys never conflate two
    schedules; [workload] must identify the operator graph and shape.
    [best] pairs the winning candidate with its synthesized program.
    Candidates of equal time rank by less exposed communication before
    the earlier candidate wins a full tie.  Every candidate is scored
    by one run on the bare simulator; exposed communication takes a
    traced run, and is measured only for the scores that tie the best
    makespan, the only ones the tie-break compares.  Those scores, and
    the winner, carry [exposed_comm_us]; every other score, and its
    cache entry, carries [None], so neither depends on the pool width.
    The search keeps the synthesized program of every score tying the
    best so far and traces the final ties after the search; a tied hit
    on an entry this process stored without blame (by a search over
    another candidate list) is synthesized again for it.
    Every synthesized program is pre-flighted through the analyzer —
    no planner-derived protocol is ever scored unchecked.  A hit on an
    entry this process stored skips synthesis and analysis, since that
    entry's program already passed both; when such a hit wins, its
    program is synthesized once after the search.

    Candidates that cannot win are not simulated.  Every miss is
    synthesized, analyzed and bounded ({!Bound.makespan}) first; the
    incumbent is the least of the best score hit and the simulated
    time of the clean miss with the least bound.  A miss whose bound
    is above the incumbent counts as [pruned], and its bound is cached
    so that a later search in this process skips its synthesis and
    analysis too.  The rest are synthesized again and simulated.  The
    winner, its tie-breaks and every count are those of the same
    search at any pool width, and the winner is the one an exhaustive
    search would pick. *)

val cache_schema_version : int
(** Version tag written into persistent cache entries, which store
    times and bounds exactly (hex float literals).  Loads accept only
    the current version: older entries stored rounded decimals, so they
    are invalidated and re-evaluated rather than replayed. *)
