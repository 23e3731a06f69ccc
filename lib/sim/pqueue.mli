(** Priority queue with FIFO tie-breaking: a FIFO bucket per distinct
    pending priority under a binary min-heap of the buckets.

    Events pushed with equal priority (under [=], so [0.0] and [-0.0]
    tie) pop in insertion order, which makes the discrete-event loop
    deterministic.  A pop is {!min_priority} then {!take}: it returns
    the priority as pushed and touches the heap only when the last
    entry of an instant leaves.  Neither allocates, and neither does a
    push once the queue has grown or been {!reserve}d to its working
    size.  Priorities must not be NaN. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

val reserve : 'a t -> int -> unit
(** [reserve t n] makes room for [n] more entries than [t] holds, in
    at most one allocation, so the next [n] pushes do not grow it.
    Capacities stay powers of two, as growth by doubling leaves them.
    Pending entries and their order are kept. *)

val min_priority : 'a t -> float
(** Priority of the minimum.  Raises [Invalid_argument] when empty. *)

val take : 'a t -> 'a
(** Removes the minimum and returns its payload.  The vacated slot is
    cleared, so the payload is collectable as soon as the caller drops
    it.  Raises [Invalid_argument] when empty. *)

val clear : 'a t -> unit
(** Drop all entries (payloads become collectable) and reset the
    insertion sequence, for engine reuse. *)
