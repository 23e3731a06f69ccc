(* Barrier channels: the signal fabric the primitives compile to.

   Every rank owns [channels_per_rank] producer/consumer channels plus
   [peer_channels] peer channels per remote rank, plus one host channel.
   A channel is a monotonic counter in NVSHMEM-style symmetric memory;
   notifies are release-stores, waits are acquire-loads (the simulator
   realizes them as waitable counters). *)

(* What the fault interceptor decides about one notify.  [Delay]
   reschedules delivery after the given number of microseconds through
   the scheduler the runtime installed. *)
type decision = Deliver | Drop | Duplicate | Delay of float

type interceptor = kind:string -> key:string -> rank:int -> amount:int -> decision

type pending_wait = {
  pw_key : string;
  pw_rank : int;
  pw_threshold : int;
  pw_since : float;
}

(* One channel: its counter plus the cumulative value it *should* have
   received, including dropped notifies: threshold <= intended means
   the signal was sent and lost in flight (retryable); threshold >
   intended means the producer never issued it (structural). *)
type chan = { counter : Tilelink_sim.Counter.t; mutable intended : int }

(* The pending-wait registry is keyed by wait id; an int-keyed table
   compares keys without the polymorphic compare. *)
module Waits = Hashtbl.Make (Int)

type t = {
  world_size : int;
  channels_per_rank : int;
  (* producer/consumer channels: [rank].(channel) *)
  pc : chan array array;
  (* peer channels: [dst_rank].(src_rank).(channel), one row per
     (dst, src) pair allocated on first use — ring kernels give every
     (stage, tile) its own channel, so most rows of a large table are
     never touched *)
  peer : chan array option array array;
  peer_channels : int;
  (* host channels: [dst_rank].(src_rank) *)
  host : chan array array;
  (* Telemetry sink plus the simulation clock that timestamps its
     events.  [None] (the default) keeps the original zero-overhead
     signal path. *)
  telemetry : Tilelink_obs.Telemetry.t option;
  clock : unit -> float;
  (* Fault-injection hook applied to every notify; [None] delivers
     everything untouched. *)
  interceptor : interceptor option;
  (* How to defer a delayed delivery (the runtime wires this to
     [Engine.schedule]); without it delays degrade to prompt delivery. *)
  scheduler : (float -> (unit -> unit) -> unit) option;
  (* Channel lookup by name, so the watchdog can re-issue a signal
     knowing only its key. *)
  by_key : (string, chan) Hashtbl.t;
  (* In-flight waits keyed by a unique id, so a watchdog can see who is
     blocked on what and since when. *)
  pending : pending_wait Waits.t;
  mutable next_wait_id : int;
}

(* A channel kind with its telemetry names, fixed once so the signal
   path never concatenates a name per notify or wait. *)
type kind = {
  name : string;
  notifies : string;
  notify : string;
  waits : string;
  wait_us : string;
  wait : string;
}

let kind name =
  {
    name;
    notifies = "notifies." ^ name;
    notify = "notify." ^ name;
    waits = "waits." ^ name;
    wait_us = "wait_us." ^ name;
    wait = "wait." ^ name;
  }

let pc_kind = kind "pc"
let peer_kind = kind "peer"
let host_kind = kind "host"

(* Delivery is an idempotent set-to-epoch, not an add: [epoch] is the
   intended cumulative value captured when the notify was issued.  A
   duplicate arrival, or a delayed delivery landing after the watchdog
   already force-released the wait, is then a no-op instead of an
   overshoot that would prematurely release future waits on the same
   key.  This mirrors release-stores of a monotonically increasing
   flag value (the hardware notify these channels model). *)
let deliver t ?pred ~kind ~rank counter ~epoch ~amount =
  Tilelink_sim.Counter.set_at_least counter epoch;
  if Tilelink_obs.Telemetry.active t.telemetry then begin
    let tele = Option.get t.telemetry in
    Tilelink_obs.Metrics.inc
      (Tilelink_obs.Telemetry.metrics tele)
      kind.notifies;
    let key = Tilelink_sim.Counter.name counter in
    let value = Tilelink_sim.Counter.value counter in
    let now = t.clock () in
    let journal = Tilelink_obs.Telemetry.journal tele in
    if Tilelink_obs.Journal.enabled journal then
      Tilelink_obs.Journal.record journal ~t:now
        (Tilelink_obs.Journal.Signal_set { key; rank; amount; value });
    (* The span is recorded at *delivery* (not issue): a dropped notify
       never becomes a wait-resolution candidate, and a delayed one
       carries its real arrival time.  [pred] is the issuer's causal
       cursor captured at issue time. *)
    Tilelink_obs.Span.record_notify
      (Tilelink_obs.Telemetry.spans tele)
      ?pred ~label:kind.notify ~rank ~key ~value ~t:now
  end

let fault_mark t ~fault_kind ~key ~rank =
  if Tilelink_obs.Telemetry.active t.telemetry then begin
    let tele = Option.get t.telemetry in
    let metrics = Tilelink_obs.Telemetry.metrics tele in
    if Tilelink_obs.Metrics.enabled metrics then
      Tilelink_obs.Metrics.inc metrics ("fault." ^ fault_kind);
    Tilelink_obs.Journal.record
      (Tilelink_obs.Telemetry.journal tele)
      ~t:(t.clock ())
      (Tilelink_obs.Journal.Fault_injected { kind = fault_kind; key; rank })
  end

(* Notify with fault interception.  Intended-value bookkeeping counts
   the notify once regardless of the decision: a dropped signal was
   still *sent* (so a retry may legitimately re-issue it), a duplicate
   only entitles the consumer to one increment. *)
let notify_instr t ~worker ~kind ~rank chan ~amount =
  let counter = chan.counter in
  let key = Tilelink_sim.Counter.name counter in
  let epoch = chan.intended + amount in
  chan.intended <- epoch;
  (* Causal predecessor of the (eventual) delivery: the issuing
     worker's last span, captured *now* so a delayed delivery still
     points at what the producer had done when it issued the signal. *)
  let pred =
    if worker >= 0 && Tilelink_obs.Telemetry.active t.telemetry then
      Tilelink_obs.Span.cursor
        (Tilelink_obs.Telemetry.spans (Option.get t.telemetry))
        ~worker
    else None
  in
  match t.interceptor with
  | None -> deliver t ?pred ~kind ~rank counter ~epoch ~amount
  | Some decide -> (
    match decide ~kind:kind.name ~key ~rank ~amount with
    | Deliver -> deliver t ?pred ~kind ~rank counter ~epoch ~amount
    | Drop -> fault_mark t ~fault_kind:"drop" ~key ~rank
    | Duplicate ->
      fault_mark t ~fault_kind:"duplicate" ~key ~rank;
      deliver t ?pred ~kind ~rank counter ~epoch ~amount;
      deliver t ?pred ~kind ~rank counter ~epoch ~amount
    | Delay d -> (
      fault_mark t ~fault_kind:"delay" ~key ~rank;
      match t.scheduler with
      | Some sched ->
        sched d (fun () -> deliver t ?pred ~kind ~rank counter ~epoch ~amount)
      | None -> deliver t ?pred ~kind ~rank counter ~epoch ~amount))

let create ~world_size ~channels_per_rank ?(peer_channels = 1) ?telemetry
    ?(clock = fun () -> 0.0) ?interceptor ?scheduler () =
  if world_size <= 0 then invalid_arg "Channel.create: world_size";
  if channels_per_rank <= 0 then
    invalid_arg "Channel.create: channels_per_rank";
  let by_key = Hashtbl.create 64 in
  let mk name =
    let c = { counter = Tilelink_sim.Counter.create ~name (); intended = 0 } in
    Hashtbl.replace by_key name c;
    c
  in
  {
    world_size;
    channels_per_rank;
    telemetry;
    clock;
    interceptor;
    scheduler;
    by_key;
    pending = Waits.create 16;
    next_wait_id = 0;
    pc =
      Array.init world_size (fun r ->
          Array.init channels_per_rank (fun c ->
              mk (Instr.key_of_target (Instr.Pc { rank = r; channel = c }))));
    peer = Array.init world_size (fun _ -> Array.make world_size None);
    peer_channels;
    host =
      Array.init world_size (fun dst ->
          Array.init world_size (fun src ->
              mk (Instr.key_of_target (Instr.Host { src; dst }))));
  }

(* Deterministic ordering: oldest wait first, ties broken
   lexicographically so the watchdog's pick is reproducible. *)
let pending_waits t =
  Waits.fold (fun _ pw acc -> pw :: acc) t.pending []
  |> List.sort (fun a b ->
         match compare a.pw_since b.pw_since with
         | 0 -> compare (a.pw_key, a.pw_rank, a.pw_threshold)
                  (b.pw_key, b.pw_rank, b.pw_threshold)
         | c -> c)

(* The (dst, src) peer row, allocated on first use. *)
let peer_row t ~dst ~src =
  match t.peer.(dst).(src) with
  | Some row -> row
  | None ->
    let row =
      Array.init t.peer_channels (fun c ->
          let name =
            Instr.key_of_target (Instr.Peer { src; dst; channel = c })
          in
          let c =
            { counter = Tilelink_sim.Counter.create ~name (); intended = 0 }
          in
          Hashtbl.add t.by_key name c;
          c)
    in
    t.peer.(dst).(src) <- Some row;
    row

(* Counter lookup by name.  Every key of the channel table resolves,
   whether or not its peer row has been touched yet. *)
let find_key t key =
  match Hashtbl.find_opt t.by_key key with
  | Some _ as found -> found
  | None -> (
    match Instr.target_of_key key with
    | Some (Instr.Peer { src; dst; _ })
      when dst >= 0 && dst < t.world_size && src >= 0 && src < t.world_size
           && t.peer.(dst).(src) = None ->
      ignore (peer_row t ~dst ~src);
      Hashtbl.find_opt t.by_key key
    | _ -> None)

let key_value t ~key =
  Option.map (fun c -> Tilelink_sim.Counter.value c.counter) (find_key t key)

let intended_value t ~key =
  match find_key t key with Some c -> c.intended | None -> 0

(* The watchdog's re-issue path: idempotent (set-at-least, not add) and
   deliberately bypasses the interceptor — a recovery action must not
   itself be faulted away silently; the chaos schedule models lossy
   retries separately. *)
let force_signal t ~key ~target =
  match find_key t key with
  | None -> invalid_arg (Printf.sprintf "Channel.force_signal: unknown key %s" key)
  | Some c -> Tilelink_sim.Counter.set_at_least c.counter target

let world_size t = t.world_size
let channels_per_rank t = t.channels_per_rank

let check_rank t r label =
  if r < 0 || r >= t.world_size then
    invalid_arg (Printf.sprintf "Channel.%s: rank %d out of range" label r)

let check_channel t c label =
  if c < 0 || c >= t.channels_per_rank then
    invalid_arg (Printf.sprintf "Channel.%s: channel %d out of range" label c)

(* Force-release every wait a crashed rank's processes are blocked in:
   the counters keep their values (nothing is delivered), the woken
   workers observe the rank is dead and abandon their tasks.  Without
   this a dead rank's parked workers would keep the engine's live count
   up forever and a polling watchdog would spin for eternity. *)
let cancel_rank_waits t ~rank =
  check_rank t rank "cancel_rank_waits";
  let n = ref 0 in
  let cancel c = n := !n + Tilelink_sim.Counter.cancel_tag c.counter ~tag:rank in
  Array.iter (Array.iter cancel) t.pc;
  Array.iter (Array.iter (Option.iter (Array.iter cancel))) t.peer;
  Array.iter (Array.iter cancel) t.host;
  !n

(* The channel of a signal target, with its kind and the rank its
   telemetry names: the owner for [Pc], the receiving side of a wait
   and the sending side of a notify for [Peer]/[Host].  [op] names the
   operation in range errors. *)
let chan_of t (target : Instr.signal_target) ~op =
  match target with
  | Instr.Pc { rank; channel } ->
    check_rank t rank op;
    check_channel t channel op;
    t.pc.(rank).(channel)
  | Instr.Peer { src; dst; channel } ->
    check_rank t src op;
    check_rank t dst op;
    (peer_row t ~dst ~src).(channel)
  | Instr.Host { src; dst } ->
    check_rank t src op;
    check_rank t dst op;
    t.host.(dst).(src)

let kind_of : Instr.signal_target -> kind = function
  | Instr.Pc _ -> pc_kind
  | Instr.Peer _ -> peer_kind
  | Instr.Host _ -> host_kind

let wait_rank : Instr.signal_target -> int = function
  | Instr.Pc { rank; _ } -> rank
  | Instr.Peer { dst; _ } | Instr.Host { dst; _ } -> dst

let notify t ~worker target ~amount =
  let op =
    match target with
    | Instr.Pc _ -> "pc_notify"
    | Instr.Peer _ -> "peer_notify"
    | Instr.Host _ -> "host_notify"
  in
  let rank =
    match target with
    | Instr.Pc { rank; _ } -> rank
    | Instr.Peer { src; _ } | Instr.Host { src; _ } -> src
  in
  notify_instr t ~worker ~kind:(kind_of target) ~rank (chan_of t target ~op)
    ~amount

let wait_op = function
  | Instr.Pc _ -> "pc_wait"
  | Instr.Peer _ -> "peer_wait"
  | Instr.Host _ -> "host_wait"

(* Instrumented wait, in three parts so a cursor can park between
   them.  [wait_begin] journals the start (even for a wait satisfied at
   once — a zero-latency wait is still a pairing point) and, when the
   counter is below the threshold, enters the wait in the pending-wait
   registry and returns its id; the caller then parks on [wait_park].  [wait_end] journals the end, feeds the
   per-primitive wait-latency histogram and stall spans, and drops the
   registry entry.  The registry is maintained regardless of telemetry:
   it is what watchdogs and deadlock enrichment read.  Only a wait that
   parks enters it — a satisfied wait never yields, so no other process
   can observe it in flight. *)
let wait_begin t target ~threshold =
  let rank = wait_rank target in
  let chan = chan_of t target ~op:(wait_op target) in
  let key = Tilelink_sim.Counter.name chan.counter in
  let id =
    if Tilelink_sim.Counter.value chan.counter >= threshold then -1
    else begin
      let id = t.next_wait_id in
      t.next_wait_id <- id + 1;
      Waits.replace t.pending id
        { pw_key = key; pw_rank = rank; pw_threshold = threshold;
          pw_since = t.clock () };
      id
    end
  in
  if Tilelink_obs.Telemetry.active t.telemetry then begin
    let journal =
      Tilelink_obs.Telemetry.journal (Option.get t.telemetry)
    in
    if Tilelink_obs.Journal.enabled journal then
      Tilelink_obs.Journal.record journal ~t:(t.clock ())
        (Tilelink_obs.Journal.Wait_begin { key; rank; threshold })
  end;
  id

(* The cancellation tag is the *executing* rank (the process that
   blocks here), which for pc waits differs from the channel owner:
   killing a rank must wake the workers it hosts, not the waiters
   watching its channels. *)
let wait_park t ~waiter target ~threshold wake =
  let tag = if waiter >= 0 then waiter else Tilelink_sim.Counter.no_tag in
  Tilelink_sim.Counter.when_ge ~tag
    (chan_of t target ~op:(wait_op target)).counter threshold wake

let wait_end t ~waiter ~worker target ~threshold ~id ~since =
  if Tilelink_obs.Telemetry.active t.telemetry then begin
    let tele = Option.get t.telemetry in
    let kind = kind_of target and rank = wait_rank target in
    let key =
      Tilelink_sim.Counter.name (chan_of t target ~op:(wait_op target)).counter
    in
    let journal = Tilelink_obs.Telemetry.journal tele in
    let t1 = t.clock () in
    if Tilelink_obs.Journal.enabled journal then
      Tilelink_obs.Journal.record journal ~t:t1
        (Tilelink_obs.Journal.Wait_end
           { key; rank; threshold; started = since });
    let metrics = Tilelink_obs.Telemetry.metrics tele in
    Tilelink_obs.Metrics.inc metrics kind.waits;
    Tilelink_obs.Metrics.observe metrics kind.wait_us (t1 -. since);
    (* Only a wait that actually blocked becomes a stall span; an
       immediately satisfied wait has no causal weight. *)
    if t1 > since then
      Tilelink_obs.Span.record_wait
        (Tilelink_obs.Telemetry.spans tele)
        ~label:kind.wait
        ~rank:(if waiter >= 0 then waiter else rank)
        ~worker ~key ~threshold ~t0:since ~t1
  end;
  if id >= 0 then Waits.remove t.pending id

let total_notifies t =
  let sum = ref 0 in
  let count c = sum := !sum + Tilelink_sim.Counter.notify_count c.counter in
  Array.iter (Array.iter count) t.pc;
  Array.iter (Array.iter (Option.iter (Array.iter count))) t.peer;
  Array.iter (Array.iter count) t.host;
  !sum
