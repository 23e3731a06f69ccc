(** Parallel execution backend: run a mapped program for real on an
    OCaml 5 domain team, with tile channels lowered to atomic
    monotonic counters (notify = fetch-and-add, release; wait =
    spin-then-park, acquire).

    Callers that execute for real call {!run} directly: the CLI's
    [validate --backend parallel] and [sanity], the bench harnesses
    and the tests.  {!Runtime.run} is the simulated interpreter only;
    chaos and failover live on its clock. *)

type result = {
  p_wall_us : float;  (** wall-clock µs, the parallel "makespan" *)
  p_notifies : int;
  p_stats : Tilelink_exec.Backend.stats;
      (** per-domain busy/park/exec accounting *)
  p_key_values : (string * int) list;
      (** final counter value per channel key, sorted *)
}

val run :
  ?telemetry:Tilelink_obs.Telemetry.t ->
  ?data:bool ->
  ?memory:Memory.t ->
  domains:int ->
  Program.t ->
  Memory.t * result
(** Execute the program on [domains] worker domains (a memoized
    persistent team).  The static analyzer pre-flights every program
    — {!Analyzer.Protocol_violation} is raised before any domain
    runs; this is the soundness gate that makes the backend
    deadlock-free and race-free (see DESIGN.md §13).  With
    [~data:true] (the default here), Compute/Copy actions mutate
    [memory] exactly as the sequential interpreter would — the
    protocol orders them, so the resulting tensors are bit-identical.
    With [~data:false] only the signal protocol runs.

    Raises [Tilelink_exec.Backend.Stream_failure] if an action
    raises, and [Tilelink_exec.Backend.Deadlock] as a backstop —
    unreachable for analyzer-clean programs. *)
