(** Bounded admission queue with backpressure and deadline-aware load
    shedding.

    The queue is the server's only buffer between the open-loop
    arrival process and the batcher.  When it is full, new arrivals
    are shed immediately ([Queue_full] — backpressure).  When a queued
    request has already waited so long that even an immediately
    scheduled first token would miss its TTFT deadline, it is shed at
    dequeue time ([Deadline]) rather than wasting a batch slot.
    [Timeout] is the server-side per-request bound, applied by the
    batcher to running requests. *)

type shed_reason = Queue_full | Deadline | Timeout

val shed_reason_to_string : shed_reason -> string

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val length : t -> int

val pressure : t -> float
(** Occupancy in [0, 1] — the degradation controller's input. *)

val offer : t -> Trace_gen.request -> (unit, shed_reason) result
(** [Error Queue_full] when the queue is at capacity. *)

val poll :
  t ->
  now_us:float ->
  ttft_deadline_us:float ->
  est_first_token_us:float ->
  (Trace_gen.request, Trace_gen.request * shed_reason) result option
(** Next admissible request.  [None] when empty.  [Error (r, Deadline)]
    pops and sheds [r] because [now_us +. est_first_token_us] already
    exceeds its arrival time plus [ttft_deadline_us]; callers loop
    until [Ok] or [None], accounting each shed. *)
