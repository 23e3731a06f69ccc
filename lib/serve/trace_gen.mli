(** Open-loop request generation: seeded Poisson, bursty (two-state
    MMPP) and replayed-trace arrivals.

    Open-loop means arrival times are fixed up front and never react
    to the server — an overloaded server keeps receiving requests,
    which is exactly the regime admission control and backpressure
    exist for.  Every draw comes from the splitmix64 PRNG
    ({!Tilelink_core.Chaos.Prng}), so a (seed, arrival, requests)
    triple always produces the identical trace. *)

type request = {
  rq_id : int;  (** dense, 0-based, in arrival order *)
  rq_arrival_us : float;
  rq_prompt : int;  (** prompt (prefill) tokens, >= 1 *)
  rq_decode : int;  (** output tokens to generate, >= 1 *)
}

(** Arrival process.  [Bursty] is a two-state Markov-modulated Poisson
    process: exponential holding times alternate between an ON state
    arriving at [burst] times the nominal rate and an OFF state slowed
    so the long-run average stays [rate_rps]; [on_fraction] is the
    fraction of time spent ON. *)
type arrival =
  | Poisson of { rate_rps : float }
  | Bursty of { rate_rps : float; burst : float; on_fraction : float }

val generate :
  ?prompt_mean:int ->
  ?decode_mean:int ->
  seed:int ->
  requests:int ->
  arrival ->
  request list
(** [requests] arrivals in time order.  Prompt/decode lengths are
    uniform in [[1, 2*mean)] ([prompt_mean] default 128, [decode_mean]
    default 16).  Raises [Invalid_argument] on non-positive rates,
    counts or means, [burst < 1] or [on_fraction] outside (0, 1). *)

val parse_trace : string -> (request list, string) result
(** Replayed trace from CSV text: one [arrival_us,prompt,decode] line
    per request ('#' comments and blank lines skipped).  Requests are
    re-sorted by arrival time and re-numbered.  Errors name the
    offending line. *)

val load_trace : string -> (request list, string) result
(** {!parse_trace} on a file's contents. *)
