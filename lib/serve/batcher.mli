(** Continuous batching over the simulated cluster: KV-cache
    residency, per-step tile-program costing, and the chaos crash
    step.

    Each running request is one sequence with a resident KV cache of
    [prompt + decoded-so-far] tokens.  A scheduler step performs one
    decode iteration for every running sequence (an entering prefill's
    first step attends over its whole prompt, producing its first
    token).  Its cost depends on the degradation tier:
    - [Overlapped] and [Shrunk] charge the makespan of the AG-KV
      attention tile program ({!Tilelink_workloads.Attention.program})
      run on a fresh simulated cluster;
    - [Nonoverlap] charges the serialized comm-then-compute baseline
      ({!Tilelink_baselines.Attention_baselines.torch_time}), whose ring
      AllGather is itself a simulation.

    The batch is quantized to a power of two and the KV length to the
    tile lattice ([world * 8]), so distinct signatures stay few.  Each
    tier memoizes its cost per [(world, batch, kv)] signature for the
    lifetime of one [t]: a serve runs each simulation once per
    signature, not once per step.

    A crash step composes the chaos machinery exactly as the fault
    harness does: seeded schedule with [crash_ranks] permanent
    crashes, [Failover] watchdog scaled to the fault-free ideal, on
    the timing-only simulator like every other step cost (no tensor
    data).  A structured {!Tilelink_core.Chaos.Stall}
    (e.g. no survivors) falls back to the serialized cost, so the step
    always completes.  Any other exception, including
    {!Tilelink_sim.Engine.Deadlock}, is a bug and propagates.  After a
    crash step the batcher's world shrinks to the survivors for the
    rest of the serve. *)

type entry = {
  e_req : Trace_gen.request;
  mutable e_kv : int;  (** resident KV tokens: prompt + decoded *)
  mutable e_remaining : int;  (** output tokens still to generate *)
  mutable e_first_us : float option;  (** first-token completion time *)
}

type t

val create :
  ?topology:Tilelink_machine.Topology.t ->
  machine:Tilelink_machine.Spec.t ->
  world_size:int ->
  head_dim:int ->
  kv_capacity:int ->
  unit ->
  t
(** [kv_capacity] is the cluster-wide KV residency bound in tokens.
    [topology] runs every step's tile program on the topology-compiled
    cluster (island-bridged NICs, heterogeneous rank scales, co-tenant
    NIC tax) and draws crash-step fault schedules against its layout.
    Raises [Invalid_argument] unless [world_size >= 2], [head_dim >= 1]
    and [kv_capacity >= 1]. *)

val world : t -> int
(** Current world size (shrinks after a crash step). *)

val running : t -> entry list
val batch_size : t -> int

val fits : t -> Trace_gen.request -> bool
(** KV-residency check for one more prefill. *)

val admit : t -> Trace_gen.request -> unit
(** Raises [Invalid_argument] when the request does not {!fits}. *)

val evict : t -> Trace_gen.request -> unit
(** Remove a running request without completing it (timeout shed). *)

val est_step_us : t -> tier:Degrade.tier -> extra:int -> float
(** Cost estimate of the next step with [extra] more sequences, the
    admission deadline check's input.  [Overlapped] and [Shrunk] use the
    analytic ideal overlap (the longer of compute-only and comm-only
    time).  [Nonoverlap] reads the memoized serialized cost of the
    step's signature, the same cost {!step} charges. *)

type crash_config = { ck_seed : int; ck_ranks : int }

type outcome = {
  o_cost_us : float;
  o_faulted : bool;  (** the step hit a fault (crash or stall) *)
  o_fell_back : bool;  (** completed on the serialized fallback path *)
  o_failed_over : int;  (** ranks failed over by the coordinator *)
  o_replayed_tiles : int;
  o_retries : int;
  o_completed : entry list;  (** requests that emitted their last token *)
}

val step : ?crash:crash_config -> t -> tier:Degrade.tier -> outcome
(** One decode iteration for the whole batch.  Raises
    [Invalid_argument] on an empty batch.  With [crash], runs under
    the chaos schedule and shrinks the world afterwards. *)
