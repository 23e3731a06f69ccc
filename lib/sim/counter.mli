(** Waitable monotonic counter — the simulator carrier for barrier
    channels (release-store / acquire-load spin loops). *)

type t

val create : unit -> t
val value : t -> int
val notify_count : t -> int

val add : t -> int -> unit
(** Increment and wake satisfied waiters. *)

val set_at_least : t -> int -> unit
(** Raise the value to at least [target] (idempotent notify). *)

val when_ge : ?tag:int -> t -> int -> (unit -> unit) -> unit
(** [when_ge t threshold wake] registers [wake] to be called once, by
    the first {!add} or {!set_at_least} that brings [value] to
    [threshold] (or by {!cancel_tag}).  The caller checks [value]
    first, as a satisfied threshold is not re-checked until the next
    notify.  [tag] (default {!no_tag}) labels the waiter for
    {!cancel_tag} — runtimes tag waits with the executing rank so a
    crashed rank's parked workers can be force-woken. *)

val no_tag : int
(** The reserved "never cancelled" tag. *)

val cancel_tag : t -> tag:int -> int
(** Wake every waiter registered under [tag] without changing the
    counter value; the resumed process sees its threshold unsatisfied.
    Returns the number woken.  Raises on {!no_tag}. *)

val reset : t -> unit
(** Reset to zero; fails if any process is waiting. *)
