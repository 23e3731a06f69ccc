(** Bandwidth server: FIFO link with fixed rate and latency.

    A transfer holds one of the link's [streams] for [bytes / rate],
    then pays [latency_us], which overlaps the next transfer. *)

type t

val create :
  Engine.t ->
  name:string ->
  gbps:float ->
  latency_us:float ->
  ?streams:int ->
  unit ->
  t

val bytes_moved : t -> float
val transfer_count : t -> int
val busy_time : t -> float

val duration : t -> bytes:float -> float
(** Nominal service time of a transfer, excluding queueing and any
    installed throttle (analytic models want the undisturbed figure). *)

(** {2 Transfer phases}

    A transfer is admit ({!try_admit}, else {!admit_later} and wait for
    the wake), hold the stream for {!wire_time} computed at admission,
    call {!wire_done}, then wait {!latency}. *)

val try_admit : t -> bool
(** Take a stream now if nobody is queued and one is free. *)

val admit_later : t -> (unit -> unit) -> unit
(** Queue for a stream after a failed {!try_admit}; the stream is
    taken on the caller's behalf, then the callback is called. *)

val wire_time : t -> bytes:float -> float
(** [bytes] over the throttled rate sampled now. *)

val wire_done : t -> bytes:float -> unit
(** Count the transfer and free its stream. *)

val latency : t -> float

val set_throttle : t -> (now:float -> float) -> unit
(** Install a time-varying rate multiplier, evaluated at each
    transfer's admission instant.  Multipliers are clamped to a small
    positive floor so an "outage" slows transfers to a crawl rather
    than dividing by zero. *)

val clear_throttle : t -> unit
