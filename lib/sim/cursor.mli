(** A simulation process: the one way anything waits on the engine.

    A cursor's owner keeps its own program state (what to run next)
    and hands the engine two closures allocated once per cursor:
    [step], which the engine calls whenever the cursor is due, and
    [wake], which a waiter list calls to end a park.  Neither a wait
    nor a park allocates a continuation or a thunk.  The events it
    books: {!start} counts a live process and schedules its first step
    at the current instant; {!wait} schedules the step [d] µs on; a
    {!park} counts the process blocked, and its {!waker} counts it
    unblocked and schedules the step at the current instant.  An owner
    that waits on several things in turn may instead {!set_step} the
    continuation before each wait or park. *)

type t

val create : Engine.t -> t
(** A cursor whose step does nothing until {!set_step}. *)

val set_step : t -> (unit -> unit) -> unit

val start : t -> (unit -> unit) -> unit
(** [start t first] counts a started process and runs [first] at the
    current instant.  [first] runs once; later events run the step. *)

val wait : t -> float -> unit
(** Run the step again after the given duration (µs).  Raises
    [Invalid_argument] on a negative duration. *)

val park : t -> unit
(** Count the cursor as blocked.  The caller then registers
    [waker t] with whatever it waits on. *)

val waker : t -> unit -> unit
(** The cursor's wake closure: counts it unblocked and runs the step at
    the current instant.  Raises [Invalid_argument] when the cursor is
    not parked (a second wake of one park). *)

val finish : t -> unit
(** Count the cursor's process as finished. *)
