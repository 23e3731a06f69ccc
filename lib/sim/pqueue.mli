(** Binary min-heap priority queue with FIFO tie-breaking.

    Events pushed with equal priority pop in insertion order, which
    makes the discrete-event loop deterministic.  A pop is
    {!min_priority} then {!take}; neither allocates. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

val min_priority : 'a t -> float
(** Priority of the minimum.  Raises [Invalid_argument] when empty. *)

val take : 'a t -> 'a
(** Removes the minimum and returns its payload.  The vacated slot is
    cleared, so the payload is collectable as soon as the caller drops
    it.  Raises [Invalid_argument] when empty. *)

val clear : 'a t -> unit
(** Drop all entries (payloads become collectable) and reset the
    insertion sequence, for engine reuse. *)
