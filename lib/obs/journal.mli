(** Structured event journal: bounded ring buffer of typed telemetry
    events, timestamped in simulation microseconds.

    Feeds the Perfetto flow/counter reconstruction; bounded so long
    runs cannot exhaust memory (oldest entries are overwritten and
    counted in {!dropped}). *)

type event =
  | Signal_set of { key : string; rank : int; amount : int; value : int }
  | Wait_begin of { key : string; rank : int; threshold : int }
  | Wait_end of { key : string; rank : int; threshold : int; started : float }
  | Tile_push of { label : string; src : int; dst : int; bytes : float }
  | Tile_pull of { label : string; src : int; dst : int; bytes : float }
  | Channel_acquire of { rank : int; base : int; extent : int }
  | Channel_release of { rank : int; base : int; extent : int }
  | Deadlock of { message : string; blocked : int }
  | Fault_injected of { kind : string; key : string; rank : int }
  | Retry of { key : string; rank : int; attempt : int }
  | Recovered of { key : string; rank : int; latency : float }
  | Stall_detected of { key : string; rank : int; threshold : int; value : int }
  | Degraded of { key : string; rank : int }
  | Rank_crashed of { rank : int }
  | Remapped of { rank : int; tiles : int }
  | Resumed of { rank : int; replayed : int; latency : float }
  | Request_shed of { id : int; reason : string }
      (** The serving layer's admission control dropped request [id];
          [reason] is one of queue_full/deadline/timeout. *)
  | Tier_change of { tier : string; pressure : float }
      (** The serving layer's degradation controller switched tiers at
          the given queue pressure (depth / capacity). *)

(** Severity of an event: routine signal/tile chatter is [Debug],
    watchdog recovery actions are [Info], lost-work outcomes are
    [Warn], run-killing conditions are [Error]. *)
type level = Debug | Info | Warn | Error

val level_of_event : event -> level
val level_to_string : level -> string
val level_of_string : string -> level option

type entry = { t : float; seq : int; event : event }

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
val enabled : t -> bool
val set_enabled : t -> bool -> unit
val capacity : t -> int

val record : t -> t:float -> event -> unit

val length : t -> int
(** Live entries (≤ capacity). *)

val dropped : t -> int
(** Entries overwritten after the ring wrapped. *)

val entries : ?min_level:level -> t -> entry list
(** Oldest first; [min_level] keeps only entries at or above that
    severity. *)

val event_name : event -> string

val entry_summary : entry -> string
(** One-line ["t=... <event> <detail>"] rendering, suitable for
    splicing into exception messages. *)

val to_json : ?min_level:level -> t -> Json.t
(** Entries carry a ["level"] field; [min_level] filters like
    {!entries}. *)
