(** Discrete-event simulation core: virtual clock + event queue.

    All times are in microseconds. *)

exception Deadlock of string

type t

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val executed_events : t -> int
val pending_events : t -> int

val blocked_time : t -> float
(** ∫ blocked_processes dt since creation, in process·µs: the
    aggregate time processes spent parked on unsatisfied conditions. *)

val blocked_processes : t -> int
(** Processes currently parked on a condition. *)

val live_processes : t -> int
(** Processes started and not yet finished.  The chaos watchdog, a
    process itself, polls this to learn when it is the only one left. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Raises
    [Invalid_argument] on a negative or NaN [delay]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at [time].  Raises
    [Invalid_argument] on a [time] before [now t] or a NaN [time]. *)

val process_started : t -> unit
val process_finished : t -> unit
val process_blocked : t -> unit
val process_unblocked : t -> unit

val step : t -> bool
(** Execute the next event; [false] if the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue (up to [until] if given).  Raises {!Deadlock}
    if live processes remain when the queue is empty. *)
