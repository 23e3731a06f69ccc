(* Structured event journal: a bounded ring buffer of typed telemetry
   events.

   Where the metrics registry aggregates, the journal keeps the raw
   sequence: every signal set, wait begin/end, tile push/pull, and
   channel acquire/release, timestamped in simulation time.  The
   Perfetto exporter mines it to reconstruct notify->wait flow arrows
   and counter tracks; the deadlock event preserves the context the
   engine had when a run wedged.  Bounded so a pathological run cannot
   eat the heap: once full, the oldest entries are overwritten and
   [dropped] counts what was lost. *)

type event =
  | Signal_set of { key : string; rank : int; amount : int; value : int }
      (** A notify landed on channel [key] owned by [rank]; the
          counter's value after the add is [value]. *)
  | Wait_begin of { key : string; rank : int; threshold : int }
  | Wait_end of { key : string; rank : int; threshold : int; started : float }
  | Tile_push of { label : string; src : int; dst : int; bytes : float }
  | Tile_pull of { label : string; src : int; dst : int; bytes : float }
  | Channel_acquire of { rank : int; base : int; extent : int }
  | Channel_release of { rank : int; base : int; extent : int }
  | Deadlock of { message : string; blocked : int }
  | Fault_injected of { kind : string; key : string; rank : int }
      (** Chaos injected a fault of [kind] (drop/duplicate/delay/...)
          on signal [key] owned by [rank]. *)
  | Retry of { key : string; rank : int; attempt : int }
  | Recovered of { key : string; rank : int; latency : float }
  | Stall_detected of { key : string; rank : int; threshold : int; value : int }
  | Degraded of { key : string; rank : int }
  | Rank_crashed of { rank : int }  (** Chaos killed [rank]. *)
  | Remapped of { rank : int; tiles : int }
      (** Failover rerouted [tiles] unfinished tiles of dead [rank]
          onto the survivors. *)
  | Resumed of { rank : int; replayed : int; latency : float }
      (** Failover replayed [replayed] lost tasks of [rank] and
          resumed, [latency] µs after the crash. *)
  | Request_shed of { id : int; reason : string }
      (** The serving layer dropped request [id]
        (queue_full/deadline/timeout) instead of poisoning the batch. *)
  | Tier_change of { tier : string; pressure : float }
      (** The serving layer's degradation controller switched to
          [tier] at queue [pressure] (depth / capacity). *)

(* Severity: the routine signal/tile chatter is Debug; recovery
   actions the watchdog took are Info; lost-work outcomes (degraded
   reads, detected stalls) are Warn; run-killing conditions are
   Error.  Ordered so [min_level] filters compare naturally. *)
type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_of_event = function
  | Signal_set _ | Wait_begin _ | Wait_end _ | Tile_push _ | Tile_pull _
  | Channel_acquire _ | Channel_release _ ->
    Debug
  | Fault_injected _ | Retry _ | Recovered _ | Remapped _ | Resumed _
  | Tier_change _ ->
    Info
  | Stall_detected _ | Degraded _ | Request_shed _ -> Warn
  | Deadlock _ | Rank_crashed _ -> Error

type entry = { t : float; seq : int; event : event }

type t = {
  capacity : int;
  buf : entry option array;
  lock : Mutex.t;
  (* Serializes ring writes: worker domains of the parallel backend
     record concurrently, and slot claim + cursor bump must be one
     atomic step or entries overwrite each other.  The [enabled] check
     stays outside the lock. *)
  mutable next : int; (* total events ever recorded *)
  mutable enabled : bool;
}

let create ?(capacity = 65536) ?(enabled = true) () =
  if capacity <= 0 then invalid_arg "Journal.create: capacity";
  {
    capacity;
    buf = Array.make capacity None;
    lock = Mutex.create ();
    next = 0;
    enabled;
  }

let enabled t = t.enabled
let set_enabled t flag = t.enabled <- flag
let capacity t = t.capacity

let record t ~t:time event =
  if t.enabled then
    Mutex.protect t.lock (fun () ->
        t.buf.(t.next mod t.capacity) <- Some { t = time; seq = t.next; event };
        t.next <- t.next + 1)

let length t = min t.next t.capacity
let dropped t = max 0 (t.next - t.capacity)

(* Oldest first.  When the ring has wrapped, the oldest live entry sits
   at [next mod capacity].  An empty slot inside the live window should
   be impossible, but the journal is diagnostic machinery — it must not
   take a run down, so [None] slots are skipped rather than asserted
   away (the wrap boundary [next = capacity] is the historical culprit:
   [next mod capacity] is 0 there while nothing has been overwritten
   yet). *)
let entries ?min_level t =
  let len = length t in
  let start = if t.next > t.capacity then t.next mod t.capacity else 0 in
  let keep =
    match min_level with
    | None -> fun _ -> true
    | Some floor ->
      fun e -> level_rank (level_of_event e.event) >= level_rank floor
  in
  List.filter_map
    (fun i ->
      match t.buf.((start + i) mod t.capacity) with
      | Some e when keep e -> Some e
      | _ -> None)
    (List.init len Fun.id)

let event_name = function
  | Signal_set _ -> "signal_set"
  | Wait_begin _ -> "wait_begin"
  | Wait_end _ -> "wait_end"
  | Tile_push _ -> "tile_push"
  | Tile_pull _ -> "tile_pull"
  | Channel_acquire _ -> "channel_acquire"
  | Channel_release _ -> "channel_release"
  | Deadlock _ -> "deadlock"
  | Fault_injected _ -> "fault_injected"
  | Retry _ -> "retry"
  | Recovered _ -> "recovered"
  | Stall_detected _ -> "stall_detected"
  | Degraded _ -> "degraded"
  | Rank_crashed _ -> "rank_crashed"
  | Remapped _ -> "remapped"
  | Resumed _ -> "resumed"
  | Request_shed _ -> "request_shed"
  | Tier_change _ -> "tier_change"

let entry_to_json { t = time; seq; event } =
  let base = [ ("t", Json.Num time); ("seq", Json.Num (float_of_int seq)) ] in
  let fields =
    match event with
    | Signal_set { key; rank; amount; value } ->
      [
        ("key", Json.Str key);
        ("rank", Json.Num (float_of_int rank));
        ("amount", Json.Num (float_of_int amount));
        ("value", Json.Num (float_of_int value));
      ]
    | Wait_begin { key; rank; threshold } ->
      [
        ("key", Json.Str key);
        ("rank", Json.Num (float_of_int rank));
        ("threshold", Json.Num (float_of_int threshold));
      ]
    | Wait_end { key; rank; threshold; started } ->
      [
        ("key", Json.Str key);
        ("rank", Json.Num (float_of_int rank));
        ("threshold", Json.Num (float_of_int threshold));
        ("started", Json.Num started);
      ]
    | Tile_push { label; src; dst; bytes }
    | Tile_pull { label; src; dst; bytes } ->
      [
        ("label", Json.Str label);
        ("src", Json.Num (float_of_int src));
        ("dst", Json.Num (float_of_int dst));
        ("bytes", Json.Num bytes);
      ]
    | Channel_acquire { rank; base; extent }
    | Channel_release { rank; base; extent } ->
      [
        ("rank", Json.Num (float_of_int rank));
        ("base", Json.Num (float_of_int base));
        ("extent", Json.Num (float_of_int extent));
      ]
    | Deadlock { message; blocked } ->
      [
        ("message", Json.Str message);
        ("blocked", Json.Num (float_of_int blocked));
      ]
    | Fault_injected { kind; key; rank } ->
      [
        ("kind", Json.Str kind);
        ("key", Json.Str key);
        ("rank", Json.Num (float_of_int rank));
      ]
    | Retry { key; rank; attempt } ->
      [
        ("key", Json.Str key);
        ("rank", Json.Num (float_of_int rank));
        ("attempt", Json.Num (float_of_int attempt));
      ]
    | Recovered { key; rank; latency } ->
      [
        ("key", Json.Str key);
        ("rank", Json.Num (float_of_int rank));
        ("latency", Json.Num latency);
      ]
    | Stall_detected { key; rank; threshold; value } ->
      [
        ("key", Json.Str key);
        ("rank", Json.Num (float_of_int rank));
        ("threshold", Json.Num (float_of_int threshold));
        ("value", Json.Num (float_of_int value));
      ]
    | Degraded { key; rank } ->
      [ ("key", Json.Str key); ("rank", Json.Num (float_of_int rank)) ]
    | Rank_crashed { rank } -> [ ("rank", Json.Num (float_of_int rank)) ]
    | Remapped { rank; tiles } ->
      [
        ("rank", Json.Num (float_of_int rank));
        ("tiles", Json.Num (float_of_int tiles));
      ]
    | Resumed { rank; replayed; latency } ->
      [
        ("rank", Json.Num (float_of_int rank));
        ("replayed", Json.Num (float_of_int replayed));
        ("latency", Json.Num latency);
      ]
    | Request_shed { id; reason } ->
      [ ("id", Json.Num (float_of_int id)); ("reason", Json.Str reason) ]
    | Tier_change { tier; pressure } ->
      [ ("tier", Json.Str tier); ("pressure", Json.Num pressure) ]
  in
  Json.Obj
    (("event", Json.Str (event_name event))
    :: ("level", Json.Str (level_to_string (level_of_event event)))
    :: (base @ fields))

(* One-line rendering for exception payloads: the deadlock enrichment
   splices the last few journal entries into the message. *)
let entry_summary { t = time; event; _ } =
  let detail =
    match event with
    | Signal_set { key; rank; amount; value } ->
      Printf.sprintf "%s rank=%d +%d -> %d" key rank amount value
    | Wait_begin { key; rank; threshold } ->
      Printf.sprintf "%s rank=%d >=%d" key rank threshold
    | Wait_end { key; rank; threshold; started } ->
      Printf.sprintf "%s rank=%d >=%d (began t=%.1f)" key rank threshold started
    | Tile_push { label; src; dst; bytes } | Tile_pull { label; src; dst; bytes }
      ->
      Printf.sprintf "%s %d->%d %.0fB" label src dst bytes
    | Channel_acquire { rank; base; extent }
    | Channel_release { rank; base; extent } ->
      Printf.sprintf "rank=%d base=%d extent=%d" rank base extent
    | Deadlock { message; blocked } ->
      Printf.sprintf "blocked=%d %s" blocked message
    | Fault_injected { kind; key; rank } ->
      Printf.sprintf "%s %s rank=%d" kind key rank
    | Retry { key; rank; attempt } ->
      Printf.sprintf "%s rank=%d attempt=%d" key rank attempt
    | Recovered { key; rank; latency } ->
      Printf.sprintf "%s rank=%d after %.1fus" key rank latency
    | Stall_detected { key; rank; threshold; value } ->
      Printf.sprintf "%s rank=%d value=%d threshold=%d" key rank value threshold
    | Degraded { key; rank } -> Printf.sprintf "%s rank=%d" key rank
    | Rank_crashed { rank } -> Printf.sprintf "rank=%d" rank
    | Remapped { rank; tiles } ->
      Printf.sprintf "rank=%d tiles=%d" rank tiles
    | Resumed { rank; replayed; latency } ->
      Printf.sprintf "rank=%d replayed=%d after %.1fus" rank replayed latency
    | Request_shed { id; reason } -> Printf.sprintf "id=%d %s" id reason
    | Tier_change { tier; pressure } ->
      Printf.sprintf "%s pressure=%.2f" tier pressure
  in
  Printf.sprintf "t=%.1f %s %s" time (event_name event) detail

let to_json ?min_level t =
  Json.Obj
    [
      ("dropped", Json.Num (float_of_int (dropped t)));
      ("entries", Json.List (List.map entry_to_json (entries ?min_level t)));
    ]
