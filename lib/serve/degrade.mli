(** Graceful-degradation controller: a three-tier ladder the server
    climbs under pressure and walks back down when load clears.

    - [Overlapped]: full batch, overlapped tile programs (the TileLink
      fast path).
    - [Shrunk]: batch capped at half, still overlapped — trades
      throughput for shorter, more preemptible steps so queued
      requests reach their first token sooner.
    - [Nonoverlap]: serialized comm-then-compute fallback
      (the {!Tilelink_baselines} cost model) with the small batch —
      the most conservative schedule, used under sustained overload
      or repeated step faults where predictability beats speed.

    Escalation triggers on queue pressure (>= 0.5 one step, >= 0.9
    straight to the top) or on consecutive faulted steps; recovery
    requires the pressure to stay below 0.25 for 8 consecutive steps,
    one tier at a time.  Time spent per tier is
    tracked for the report. *)

type tier = Overlapped | Shrunk | Nonoverlap

val tier_to_string : tier -> string
val tier_rank : tier -> int
(** 0, 1, 2 — monotone in severity. *)

type t

val create : unit -> t

val tier : t -> tier

val max_batch : t -> full:int -> int
(** Effective batch cap at the current tier ([full] halved when
    degraded, never below 1). *)

val observe :
  t -> now_us:float -> pressure:float -> faulted:bool -> tier option
(** Feed one scheduler step; returns [Some new_tier] on a transition
    (for journaling), [None] otherwise.  [now_us] closes the time
    accounting of the previous tier. *)

val finish : t -> now_us:float -> unit
(** Close the open tier interval at drain time. *)

val time_in : t -> tier -> float
(** Accumulated µs at [tier] (after {!finish} or the latest
    {!observe}). *)
