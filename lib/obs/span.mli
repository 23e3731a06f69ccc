(** Causal span recorder: per-tile work/stall intervals with
    happens-before edges, the input of {!Critpath} and {!Attribution}.

    Edges come from three sources — program order on a worker
    ({!record_task}, {!record_retry}, {!record_wait} chain on their
    [worker]), signal issue ({!record_notify}'s [pred] is the issuing
    worker's {!cursor} at issue time), and wait resolution (a
    {!record_wait} points at the first delivery on its key whose
    post-delivery counter value met the threshold).  Every predecessor
    has a smaller id and ends no later than its successor. *)

type kind = Compute | Copy | Wait_stall | Notify | Retry | Replay

val kind_to_string : kind -> string

type span = {
  id : int;
  kind : kind;
  label : string;
  rank : int;
  worker : int;  (** -1 when not worker-chained *)
  t0 : float;
  t1 : float;
  key : string option;  (** signal key, for Notify/Retry/Wait_stall *)
  value : int option;  (** delivered counter value, for Notify/Retry *)
  preds : int list;  (** happens-before predecessors, ids < [id] *)
}

type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool

val fresh_worker : t -> int
(** Allocate a worker id for one sequential execution stream. *)

val cursor : t -> worker:int -> int option
(** Id of the last span recorded on [worker], if any — captured by
    notify issuers as the causal predecessor of the delivery. *)

val record_task :
  t ->
  kind:kind ->
  label:string ->
  rank:int ->
  worker:int ->
  t0:float ->
  t1:float ->
  unit
(** A compute/copy/replay interval, chained in program order on
    [worker] (pass [-1] to skip chaining). *)

val record_notify :
  ?pred:int ->
  t ->
  label:string ->
  rank:int ->
  key:string ->
  value:int ->
  t:float ->
  unit
(** A delivery: zero-duration at the instant the counter was raised to
    [value] (the post-delivery value).  [pred] is the issuer's
    {!cursor} at issue time.  Registered as a wait-resolution
    candidate on [key]. *)

val record_retry :
  t ->
  label:string ->
  rank:int ->
  worker:int ->
  key:string ->
  value:int ->
  t0:float ->
  t1:float ->
  unit
(** A watchdog re-issue interval that force-raised [key] to [value]:
    worker-chained and registered as a delivery on [key]. *)

val record_wait :
  t ->
  label:string ->
  rank:int ->
  worker:int ->
  key:string ->
  threshold:int ->
  t0:float ->
  t1:float ->
  unit
(** A blocked-wait interval, chained on [worker] and linked to the
    first delivery on [key] whose value reached [threshold]. *)

val spans : t -> span list
(** All spans in id (recording) order. *)

val span_to_json : span -> Json.t
