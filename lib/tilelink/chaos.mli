(** Seeded chaos: deterministic machine-level fault injection plus the
    runtime watchdog that recovers from it.

    Every fault — link degradation/outage windows, compute stragglers,
    copy-engine stalls, dropped/duplicated/delayed signals — derives
    from a single integer seed through a splitmix64-style hash, never a
    wall clock, so a seed replays the exact same faults and recovery
    actions.  The watchdog half converts overdue waits into bounded
    retries (idempotent re-issued notifies with exponential backoff), a
    graceful degradation (force-release + non-overlapped fallback for
    the affected tile range) or a structured {!Stall} diagnostic. *)

(** Splittable deterministic PRNG (splitmix64). *)
module Prng : sig
  type t

  val create : seed:int -> t
  val next : t -> int64
  val float : t -> float
  (** Uniform in [0, 1), 53-bit. *)

  val range : t -> float -> float -> float
end

val derive_seed : seed:int -> index:int -> int
(** Stable per-trial sub-seed, non-negative. *)

(** {1 Fault schedule} *)

(** Fault intensities.  Window probabilities are per rank; signal
    probabilities are per notify. *)
type spec = {
  link_degrade_prob : float;
  link_degrade_factor : float;  (** link rate multiplier in a window *)
  link_outage_prob : float;
  link_outage_factor : float;
      (** severe multiplier for outage windows — small but nonzero, so
          in-flight transfers finish within the stall budget *)
  straggler_prob : float;
  straggler_factor : float;  (** compute-duration multiplier, >= 1 *)
  copy_stall_prob : float;
  copy_stall_us : float;  (** stall charged per copy inside a window *)
  drop_prob : float;
  duplicate_prob : float;
  delay_prob : float;
  delay_us : float;  (** nominal delivery delay (jittered 0.5–1.5x) *)
  reissue_drop_prob : float;
      (** probability a watchdog re-issue is itself lost *)
}

val default_spec : spec

val no_machine_faults : spec -> spec
(** Zero out the machine-level windows/stragglers, keeping signal
    faults — for tests that must not perturb timing. *)

(** A rank-crash fault: the rank dies at [cr_at] and stays dead; its
    lost work is replayed by the failover coordinator. *)
type crash = { cr_at : float }

(** A fault window: [w_factor] applies while [w_from <= now < w_until]. *)
type window = { w_from : float; w_until : float; w_factor : float }

type schedule

val plan :
  ?spec:spec ->
  ?horizon_us:float ->
  ?crash_ranks:int ->
  ?layout:Tilelink_machine.Topology.layout ->
  seed:int ->
  world_size:int ->
  unit ->
  schedule
(** Draw the full fault schedule for one run: per-rank link windows,
    stragglers and copy stalls, plus per-notify signal faults.
    [horizon_us] bounds the fault windows (default 2000).  [crash_ranks]
    (default 0) forces that many deterministic, seed-chosen crashes
    mid-horizon; it may equal [world_size] (no survivors) — triaging
    that is the runtime's job.  [layout] makes the forced crashes
    island-correlated (victims fill whole islands, every rank of an
    island dying at the same instant) and sizes the per-island NIC
    partition windows that {!with_nic_partitions} pins. *)

val partitioned : schedule -> node:int -> now:float -> bool
(** Whether [node]'s NIC sits inside a planned partition window at
    [now]. *)

val with_nic_partitions : schedule -> (int * window) list -> schedule
(** Replace the planned NIC partition windows with explicit
    (node, window) pairs — for tests that must pin exact cuts. *)

val crashes : schedule -> (int * crash) list
(** Planned crash faults ordered by crash instant (then rank). *)

val with_crashes : schedule -> (int * crash) list -> schedule
(** Replace the schedule's planned crash faults with an explicit
    (rank, crash) list — for tests and reproductions that must pin
    exact crash instants (e.g. a second crash landing mid-replay of
    the first), which the seeded draws cannot. *)

val injected : schedule -> (string * string) list
(** Injection log, oldest first: (fault kind, subject) where subject is
    a ["rank<i>"] for machine faults or the signal key for channel
    faults.  Channel entries appear as the run executes. *)

val interceptor : schedule -> Channel.interceptor
(** Per-notify fault decisions, hashed from (seed, key, occurrence). *)

val apply_to_cluster : schedule -> Tilelink_machine.Cluster.t -> unit

(** {1 Watchdog} *)

(** What to do once retries are exhausted (or disabled): [Fail_stop]
    raises {!Stall}; [Degrade] force-releases the wait and records the
    key so the harness can charge the non-overlapped fallback for the
    affected tile range.  [Failover] additionally arms the runtime's
    crash-recovery coordinator (elastic remap + replay); for exhausted
    signal-fault retries it behaves like [Degrade]. *)
type policy = Fail_stop | Degrade | Failover

type watchdog = {
  poll_interval_us : float;
  wait_timeout_us : float;
      (** age at which a sent-but-lost signal is suspected *)
  stall_timeout_us : float;
      (** age at which a never-sent signal is declared structural;
          keep well above worst-case straggler slack *)
  max_retries : int;
  backoff_base_us : float;  (** backoff = base * 2^attempt *)
  retry : bool;
  policy : policy;
}

val default_watchdog : watchdog

(** A structured stall diagnostic: which signal, who produces it
    (rank + channel/tile coordinate), who is blocked on it, counter
    value vs intended value, and the full waiters-for edge list. *)
type stall = {
  stall_key : string;
  stall_kind : string;  (** "pc" | "peer" | "host" | "unknown" *)
  stall_owner : int;  (** rank producing the missing signal *)
  stall_channel : int option;  (** channel / tile coordinate *)
  stall_rank : int;  (** waiting rank *)
  stall_threshold : int;
  stall_value : int;
  stall_intended : int;
  stall_since : float;
  stall_at : float;
  stall_waiters : (string * int * int) list;
      (** every blocked wait as (key, rank, threshold) *)
}

exception Stall of stall

val parse_key : string -> string * int * int option
(** Decompose a counter key into (kind, producing rank, channel);
    [("unknown", -1, None)] if it matches no known shape. *)

(** Mutable record of what the watchdog (and, for the failover fields,
    the runtime's crash-recovery coordinator) did during one run. *)
type recovery = {
  mutable retries : int;
  mutable recovered : (string * float) list;
      (** (key, recovery latency µs), in detection order *)
  mutable degraded : string list;  (** force-released keys, in order *)
  mutable stalls : stall list;
  mutable failed_over : (int * float) list;
      (** (crashed rank, detect->resume latency µs), in crash order *)
  mutable remapped_tiles : int;  (** unfinished tiles rerouted to survivors *)
  mutable replayed_tiles : int;  (** tasks actually re-executed *)
  mutable total_tiles : int;  (** ledger size: all tracked tasks *)
  mutable cross_island_replays : int;
      (** replays placed on a survivor outside the crashed rank's
          NVLink island (0 on flat topologies) *)
}

val fresh_recovery : unit -> recovery

val raise_stall :
  telemetry:Tilelink_obs.Telemetry.t option ->
  recovery:recovery ->
  channels:Channel.t ->
  key:string ->
  kind:string ->
  owner:int ->
  channel:int option ->
  rank:int ->
  threshold:int ->
  value:int ->
  intended:int ->
  since:float ->
  now:float ->
  'a
(** The one stall path: build the {!stall} (its waiters-for list is
    every pending wait of [channels]), append it to [recovery.stalls],
    journal [Stall_detected], count the [recovery.stalls] metric and
    raise {!Stall}.  Used by the watchdog under [Fail_stop] and by the
    runtime's failover coordinator for no-survivor and partition
    stalls. *)

(** Everything {!Runtime.run} needs to run under chaos: an optional
    fault schedule, an optional watchdog, and the recovery record the
    watchdog fills in. *)
type control = {
  c_schedule : schedule option;
  c_watchdog : watchdog option;
  c_recovery : recovery;
}

val control : ?schedule:schedule -> ?watchdog:watchdog -> unit -> control

val start_watchdog :
  ?hooks:(unit -> unit) ->
  ?quiesce:(unit -> bool) ->
  engine:Tilelink_sim.Engine.t ->
  channels:Channel.t ->
  telemetry:Tilelink_obs.Telemetry.t option ->
  control:control ->
  wd:watchdog ->
  unit ->
  unit
(** Start the watchdog as a cursor on [engine]; the runtime starts it
    after the execution streams.  Polls every [poll_interval_us] while
    other processes are live; raises {!Stall} under [Fail_stop].
    [hooks] (the runtime's crash-failover coordinator) runs at the top
    of every tick, before the live-process check and before
    overdue-wait processing — a crash that drains every worker must
    still be recovered, and remap must precede any retry force-signals.
    [quiesce] (also the coordinator's) defers *structural* stall triage
    while it returns [true]: during failover replay a never-sent signal
    is usually one the replay is about to produce, so only recoverable
    (sent-then-lost) waits are retried until recovery settles. *)
