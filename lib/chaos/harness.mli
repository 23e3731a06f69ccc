(** Chaos trial harness: run seeded fault schedules through real
    workloads, validate numerics against fault-free runs, classify the
    outcome, and export a deterministic summary.

    Every number in a trial comes from simulation time and seeded
    PRNGs, so the same (workload, seed, trials) triple produces
    byte-identical summary JSON on every run — including under the
    parallel {!run_trials} path, whose pool returns results in input
    order. *)

open Tilelink_core
module Obs = Tilelink_obs

type workload = Mlp_ag_gemm | Moe_part2 | Attention_ag

val workload_to_string : workload -> string

val program : ?world:int -> workload -> Program.t
(** The kernel a trial of [workload] runs on [world] ranks (default:
    the workload's own world; a topology run uses its natural world). *)

(** Trial outcome, in decreasing order of health: [Clean] (no recovery
    action needed), [Recovered] (watchdog re-issued lost signals),
    [Failed_over] (a rank crashed; its unfinished tiles were remapped
    onto the survivors and replayed, numerics still bit-identical),
    [Degraded] (waits force-released; fallback recomputation charged),
    [Stalled] (watchdog raised {!Chaos.Stall} under [Fail_stop], or a
    crash left no survivors). *)
type classification = Clean | Recovered | Failed_over | Degraded | Stalled

val classification_to_string : classification -> string

(** Where a stalled trial got stuck: the missing signal, its producing
    rank, channel index and (when the workload's channels map to row
    ranges) the tile rows it covers, plus the blocked rank. *)
type stall_info = {
  si_key : string;
  si_kind : string;
  si_owner : int;
  si_channel : int option;
  si_rank : int;
  si_tile_rows : (int * int) option;
}

type trial = {
  index : int;
  trial_seed : int;  (** derived from (seed, index) *)
  classification : classification;
  ideal_us : float;  (** fault-free makespan of the same program *)
  makespan_us : float;  (** chaos-run makespan (detection time if stalled) *)
  fallback_us : float;  (** analytic non-overlapped recomputation cost *)
  total_us : float;  (** makespan + fallback *)
  achieved_overlap : float;  (** ideal / total; < 1.0 when degraded *)
  overlap_efficiency : float;
      (** causal-span attribution over the chaos run: fraction of the
          run's communication hidden behind compute *)
  recovery_overhead_us : float;
      (** retry/replay time on the run's critical path *)
  numerics_ok : bool;  (** outputs match the workload reference *)
  retries : int;
  recovered_signals : (string * float) list;  (** (key, latency µs) *)
  degraded_keys : string list;
  faults : (string * string) list;  (** schedule's injection log *)
  stall : stall_info option;
  failed_over_ranks : (int * float) list;
      (** (crashed rank, detect->resume latency µs); JSON export omits
          the failover fields on crash-free trials so pre-crash
          summaries stay byte-identical *)
  remapped_tiles : int;  (** unfinished tiles rerouted to survivors *)
  replayed_tiles : int;  (** tasks actually re-executed on survivors *)
  total_tiles : int;  (** ledger size (0 when no crashes were planned) *)
  topology : string option;
      (** topology name when the trial ran on a declarative topology;
          JSON export omits the topology fields on flat trials *)
  cross_island_replays : int;
      (** replays placed outside the crashed rank's island (0 flat) *)
}

type summary = {
  s_workload : workload;
  s_seed : int;
  s_trials : trial list;
  s_clean : int;
  s_recovered : int;
  s_failed_over : int;
  s_degraded : int;
  s_stalled : int;
  s_recovery_latencies : float list;
  s_failover_latencies : float list;
  s_overlap_efficiency : float;  (** mean over trials *)
  s_recovery_overhead_us : float;  (** summed over trials *)
  s_topology : string option;
  s_cross_island_replays : int;  (** summed over trials *)
}

val profile_trial :
  ?spec:Chaos.spec ->
  ?retry:bool ->
  ?policy:Chaos.policy ->
  ?crash_ranks:int ->
  ?topology:Tilelink_machine.Topology.t ->
  workload:workload ->
  seed:int ->
  index:int ->
  unit ->
  trial * Tilelink_sim.Trace.t * Obs.Telemetry.t
(** Run one trial: a fault-free run to measure the ideal makespan,
    whose memory must pass the workload's checker (otherwise [Failure]
    naming the workload), then the seeded chaos run with a watchdog
    scaled to it.  [retry] defaults to [true], [policy] to [Degrade],
    [spec] to {!Chaos.default_spec}.  Tracing is on for the chaos run,
    and its trace and telemetry handle are returned for Perfetto export
    with fault and recovery instants marked.

    [crash_ranks] (default 0) forces that many seeded permanent rank
    crashes into the schedule.  When positive, the signal-fault
    probabilities of [spec] are zeroed (crash recovery must keep
    numerics bit-identical; degraded stale-read fallbacks would not)
    and a [Degrade] policy is upgraded to {!Chaos.Failover}.

    [topology] runs the trial on that declarative topology: the world
    becomes {!Tilelink_machine.Topology.natural_world} (the workload
    shape scales with it, keeping per-rank tile volume constant), both
    runs use the topology-compiled cluster, the fault schedule is
    drawn against the topology's layout (forced crashes fill whole
    islands) and failover remaps intra-island-first. *)

val run_trials :
  ?pool:Tilelink_exec.Pool.t ->
  ?spec:Chaos.spec ->
  ?retry:bool ->
  ?policy:Chaos.policy ->
  ?crash_ranks:int ->
  ?topology:Tilelink_machine.Topology.t ->
  workload:workload ->
  seed:int ->
  trials:int ->
  unit ->
  summary
(** Run [trials] independent trials (sub-seeded from [seed]) on the
    pool when given, sequentially otherwise; results are in trial-index
    order either way, and trial [i] equals [profile_trial ~index:i]'s.
    The fault-free run depends on neither seed nor index, so it runs
    once per sweep.  Raises [Invalid_argument] when [trials <= 0]. *)

val trial_to_json : trial -> Obs.Json.t

val summary_to_string : summary -> string
(** Indented JSON; byte-identical for identical inputs. *)
