(** Barrier channels: the signal fabric tile-centric primitives compile
    to (NVSHMEM-style symmetric counters with release/acquire
    semantics). *)

type t

(** Fault-interception verdict for one notify.  [Delay d] delivers the
    signal [d] µs later (through the scheduler installed at
    {!create}); [Duplicate] delivers it twice (the intended value only
    counts it once, so duplicates inflate the counter harmlessly —
    waits are [>= threshold]). *)
type decision = Deliver | Drop | Duplicate | Delay of float

type interceptor =
  kind:string -> key:string -> rank:int -> amount:int -> decision
(** Called on every notify with the channel kind ([pc]/[peer]/[host]),
    the counter key, the signalling rank and the amount. *)

(** A wait currently parked between {!wait_begin} and {!wait_end}:
    which counter, which rank is waiting, for what threshold, since
    when (simulation time). *)
type pending_wait = {
  pw_key : string;
  pw_rank : int;
  pw_threshold : int;
  pw_since : float;
}

val create :
  world_size:int ->
  channels_per_rank:int ->
  ?peer_channels:int ->
  ?telemetry:Tilelink_obs.Telemetry.t ->
  ?clock:(unit -> float) ->
  ?interceptor:interceptor ->
  ?scheduler:(float -> (unit -> unit) -> unit) ->
  unit ->
  t
(** With [telemetry], every notify/wait records a journal event
    ([clock] supplies the simulation time) and feeds per-primitive
    counters and wait-latency histograms ([wait_us.pc] / [.peer] /
    [.host]).  Without it the signal path is unchanged.

    [interceptor] sees every notify and may drop, duplicate or delay
    it; injected faults are counted under [fault.*] metrics and
    journalled as [Fault_injected].  [scheduler delay thunk] is how a
    delayed delivery is deferred (the runtime passes
    [Engine.schedule]); without one, [Delay] degrades to prompt
    delivery. *)

(** {2 By signal target}

    [worker] is the span-recorder worker id of the issuing execution
    stream, with [-1] for none; when telemetry is on, a notify's
    delivery span has that worker's last span at issue time as its
    causal predecessor.  [waiter] is the *executing* rank blocking in
    a wait (which for pc channels differs from the channel owner), with
    [-1] for none.
    A wait is [wait_begin], then, if that returned an id, [wait_park]
    with a cursor's wake callback, then (after the wake, or at once)
    [wait_end]. *)

val notify : t -> worker:int -> Instr.signal_target -> amount:int -> unit

val wait_begin : t -> Instr.signal_target -> threshold:int -> int
(** Start a wait: journal it (with telemetry) and, when the counter is
    below [threshold], list it in {!pending_waits} and return its id
    ([>= 0]).  Returns [-1] when the wait is satisfied already. *)

val wait_park :
  t -> waiter:int -> Instr.signal_target -> threshold:int ->
  (unit -> unit) -> unit
(** Register a wake callback for when the counter reaches [threshold],
    tagged with [waiter] for {!cancel_rank_waits}. *)

val wait_end :
  t -> waiter:int -> worker:int -> Instr.signal_target -> threshold:int ->
  id:int -> since:float -> unit
(** Finish the wait [wait_begin] started at time [since] and numbered
    [id]: journal its end, feed wait metrics and, if it blocked, a
    stall span chained into [worker]'s program order (with telemetry),
    and drop it from {!pending_waits}. *)

val cancel_rank_waits : t -> rank:int -> int
(** Force-wake every wait whose executing rank (the [waiter] tag) is
    [rank], without delivering anything: counters keep their values and
    the resumed processes see their thresholds unsatisfied.  Returns the
    number of waits released.  This is how a crash stops a dead rank's
    workers from parking forever. *)

val total_notifies : t -> int

val pending_waits : t -> pending_wait list
(** Waits currently blocked, oldest first (deterministic order).
    Maintained whether or not telemetry is enabled: this is the
    waiters-for edge list watchdogs and deadlock enrichment read. *)

val key_value : t -> key:string -> int option
(** Current value of the counter named [key], if it exists. *)

val intended_value : t -> key:string -> int
(** Cumulative amount every producer *attempted* to deliver to [key],
    including notifies the interceptor dropped.  [threshold <=
    intended_value] means a lost-in-flight signal (retryable);
    [threshold > intended_value] means the producer never issued it. *)

val force_signal : t -> key:string -> target:int -> unit
(** Idempotently raise the counter named [key] to at least [target],
    waking satisfied waiters.  Bypasses the interceptor — this is the
    watchdog's recovery path.  Raises [Invalid_argument] on an unknown
    key. *)
