(** Counted resource (semaphore) with FIFO admission.

    Models pools of identical execution units (SMs, DMA channels).
    {!acquire} blocks the calling process until the request fits. *)

type t

val create : Engine.t -> name:string -> capacity:int -> t
val name : t -> string
val capacity : t -> int
val available : t -> int
val in_use : t -> int
val queue_length : t -> int

val acquire : t -> int -> unit
(** Block (FIFO, no barging) until [amount] units are free, then take
    them.  Must run inside a process. *)

val try_acquire : t -> int -> bool
(** Take [amount] units now if nobody is queued and they are free.
    Raises [Invalid_argument] on a non-positive amount or one above
    capacity. *)

val enqueue : t -> int -> (unit -> unit) -> unit
(** [enqueue t amount wake] queues a request after a failed
    {!try_acquire}: the units are taken on the caller's behalf when
    its turn comes, then [wake] is called.  {!acquire} parks on exactly
    this queue. *)

val release : t -> int -> unit

val use : t -> int -> (unit -> 'a) -> 'a
(** [use t n f] acquires [n], runs [f], releases even on exception. *)

val busy_time : t -> float
(** ∫ in_use dt since creation, in unit·µs. *)

val utilization : t -> horizon:float -> float
(** Fraction of capacity·horizon that was busy. *)
