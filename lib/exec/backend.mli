(** Parallel execution substrate: a persistent OCaml 5 domain team
    driving cooperative instruction streams over atomic monotonic
    counters.

    The TileLink side lowers a mapped program onto this (one stream
    per task, home worker = rank mod team size); nothing here depends
    on tilelink types, which is what lets [tilelink_core] link against
    it without a cycle.

    Protocol semantics: [Notify] is an [Atomic.fetch_and_add]
    (sequentially consistent, hence at least release); [Wait] is a
    spin-then-park loop around an [Atomic.get] (at least acquire).  A
    worker whose streams are all blocked spins briefly, then parks on
    a Condition; notifies bump a wake sequence under the team lock so
    wakeups cannot be lost.  When every worker that still owns
    unfinished streams is parked, the team raises {!Deadlock} with one
    line per blocked wait instead of hanging — unreachable for
    programs admitted by the static analyzer, whose fixpoint executes
    exactly this maximally-parallel stream model. *)

type counter
(** Monotonic signal counter, starts at 0. *)

val counter : string -> counter
(** [counter key] — [key] only labels diagnostics and final-value
    reporting. *)

val counter_value : counter -> int

type op =
  | Exec of { label : string; run : unit -> unit }
      (** Side-effecting work (tile compute, copy).  Exceptions abort
          the whole run and re-raise as {!Stream_failure}. *)
  | Wait of { counter : counter; threshold : int }
      (** Acquire: block the stream until [counter >= threshold]. *)
  | Notify of { counter : counter; amount : int }
      (** Release: [counter += amount], waking parked workers. *)

type stream

val stream : label:string -> home:int -> op list -> stream
(** A straight-line op sequence.  [home] picks the owning worker
    ([home mod size]); streams sharing a home interleave cooperatively
    at wait boundaries on one domain. *)

type domain_stats = {
  d_streams : int;
  d_execs : int;
  d_notifies : int;
  d_busy_s : float;  (** seconds inside [Exec] closures *)
  d_parks : int;
  d_spins : int;
}

type stats = {
  wall_s : float;
  per_domain : domain_stats array;
  total_execs : int;
  total_notifies : int;
  total_parks : int;
}

exception Deadlock of string list
(** Every worker with unfinished streams parked at once; the payload
    describes each blocked wait (stream, counter key, threshold,
    current value). *)

exception Stream_failure of string * exn
(** An [Exec] closure raised; the string names the op and stream. *)

type t
(** A persistent team of worker domains. *)

val run : t -> stream list -> stats
(** Execute the streams to completion and return the accounting.
    Synchronous: the calling domain blocks (it does not execute
    streams itself).  Concurrent calls serialize.  Raises {!Deadlock}
    or {!Stream_failure} as above. *)

val shared : int -> t
(** Memoized team per size, torn down automatically at process
    exit. *)
