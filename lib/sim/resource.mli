(** Counted resource (semaphore) with FIFO admission.

    Models pools of identical execution units (SMs, DMA channels).  A
    request is {!try_acquire}, and on failure {!enqueue} with a wake
    callback. *)

type t

val create : Engine.t -> name:string -> capacity:int -> t
val name : t -> string
val capacity : t -> int
val available : t -> int
val in_use : t -> int
val queue_length : t -> int

val try_acquire : t -> int -> bool
(** Take [amount] units now if nobody is queued and they are free.
    Raises [Invalid_argument] on a non-positive amount or one above
    capacity. *)

val enqueue : t -> int -> (unit -> unit) -> unit
(** [enqueue t amount wake] queues a request after a failed
    {!try_acquire}: the units are taken on the caller's behalf when
    its turn comes (FIFO, no barging), then [wake] is called. *)

val release : t -> int -> unit

val busy_time : t -> float
(** ∫ in_use dt since creation, in unit·µs. *)

val utilization : t -> horizon:float -> float
(** Fraction of capacity·horizon that was busy. *)
