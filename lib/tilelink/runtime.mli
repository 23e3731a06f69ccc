(** Program interpreter on a simulated cluster: timing always, real
    tensor data optionally. *)

type result = {
  makespan : float;  (** µs from run start to completion *)
  channels : Channel.t;
  memory : Memory.t;
  notifies : int;
}

val run :
  ?telemetry:Tilelink_obs.Telemetry.t ->
  ?data:bool -> ?memory:Memory.t -> ?chaos:Chaos.control ->
  ?analyze:bool ->
  ?rebuild:(unit -> Program.t) ->
  Tilelink_machine.Cluster.t -> Program.t -> result
(** Execute the program to completion on the simulated clock.  Real
    execution on OCaml 5 domains is {!Parallel.run}.

    With [~analyze:true] (default
    false), the static protocol analyzer pre-flights the program and a
    would-be runtime deadlock raises {!Analyzer.Protocol_violation} —
    with key/rank/channel diagnostics — before the simulation starts.
    With [~data:true], [Copy] and
    [Compute] instructions also mutate [memory] (defaults to a fresh
    empty memory).  With [~telemetry], the run records per-primitive
    wait-latency histograms, tile/copy counters, journal events for
    every signal and remote tile movement, engine-level gauges
    (events executed, blocked time), and per-rank lane-utilization
    gauges; disabled or absent telemetry adds no events.

    With [~chaos], the control's schedule is installed as a channel
    interceptor plus cluster disturbance, and its watchdog runs as an
    extra sim process: overdue waits are retried / degraded per its
    policy, and hangs surface as {!Chaos.Stall} instead of
    [Engine.Deadlock], with actions recorded in
    [chaos.Chaos.c_recovery].

    When the chaos schedule plans rank crashes, the runtime keeps a
    tile-completion ledger (one entry per task, producers checkpoint
    issued notifies) and kills the scheduled ranks mid-run, for good:
    their parked waits are force-released, their workers drain, and
    transfers touching the dead shard fail fast.  Under the
    {!Chaos.Failover} policy a recovery coordinator hooked into the
    watchdog validates the remapped protocol
    ({!Fault.remap_program} + {!Analyzer.check_exn}), marks the shard
    recovered, and replays only the ledger's lost tiles round-robin
    over the survivors, running the original tasks against the
    original channel keys — recorded as [failed_over] /
    [remapped_tiles] / [replayed_tiles] in the recovery.  A crash with
    no survivors, or whose only survivors sit behind a partitioned
    NIC, raises a structured {!Chaos.Stall} (via {!Chaos.raise_stall},
    so it is journaled and counted like a watchdog stall), never a
    hang.
    [rebuild] supplies a fresh build of the program for replay — pass
    it whenever task closures hold accumulator state (flash-attention
    online softmax) that a partial first execution already advanced.

    Raises on invalid programs; a schedule with missing signals and no
    watchdog raises {!Tilelink_sim.Engine.Deadlock} whose message now
    includes the pending-waiter set and the last journal events
    (recorded in the journal first when telemetry is on). *)
