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

type t = {
  world_size : int;
  channels_per_rank : int;
  (* producer/consumer channels: [rank].(channel) *)
  pc : Tilelink_sim.Counter.t array array;
  (* peer channels: [dst_rank].(src_rank).(channel), one row per
     (dst, src) pair allocated on first use — ring kernels give every
     (stage, tile) its own channel, so most rows of a large table are
     never touched *)
  peer : Tilelink_sim.Counter.t array option array array;
  peer_channels : int;
  (* host channels: [dst_rank].(src_rank) *)
  host : Tilelink_sim.Counter.t array array;
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
  (* Counter lookup by name, so the watchdog can re-issue a signal
     knowing only its key. *)
  by_key : (string, Tilelink_sim.Counter.t) Hashtbl.t;
  (* Cumulative value each counter *should* have received, including
     dropped notifies: threshold <= intended means the signal was sent
     and lost in flight (retryable); threshold > intended means the
     producer never issued it (structural). *)
  intended : (string, int) Hashtbl.t;
  (* In-flight waits keyed by a unique id, so a watchdog can see who is
     blocked on what and since when. *)
  pending : (int, pending_wait) Hashtbl.t;
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

let intended_value t ~key =
  Option.value ~default:0 (Hashtbl.find_opt t.intended key)

(* Notify with fault interception.  Intended-value bookkeeping counts
   the notify once regardless of the decision: a dropped signal was
   still *sent* (so a retry may legitimately re-issue it), a duplicate
   only entitles the consumer to one increment. *)
let notify_instr ?worker t ~kind ~rank counter ~amount =
  let key = Tilelink_sim.Counter.name counter in
  let epoch = intended_value t ~key + amount in
  Hashtbl.replace t.intended key epoch;
  (* Causal predecessor of the (eventual) delivery: the issuing
     worker's last span, captured *now* so a delayed delivery still
     points at what the producer had done when it issued the signal. *)
  let pred =
    if Tilelink_obs.Telemetry.active t.telemetry then
      match worker with
      | Some w when w >= 0 ->
        Tilelink_obs.Span.cursor
          (Tilelink_obs.Telemetry.spans (Option.get t.telemetry))
          ~worker:w
      | _ -> None
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

(* Instrumented wait: journal begin/end (even for waits that are
   satisfied immediately — a zero-latency wait is still a pairing
   point) and feed the per-primitive wait-latency histogram.  The
   pending-wait registry is maintained regardless of telemetry: it is
   what watchdogs and deadlock enrichment read.  Only a wait that parks
   enters it — a satisfied wait never yields, so no other process can
   observe it in flight. *)
let wait_instr ?waiter ?worker t ~kind ~rank counter ~threshold =
  let key = Tilelink_sim.Counter.name counter in
  let id =
    if Tilelink_sim.Counter.value counter >= threshold then -1
    else begin
      let id = t.next_wait_id in
      t.next_wait_id <- id + 1;
      Hashtbl.replace t.pending id
        { pw_key = key; pw_rank = rank; pw_threshold = threshold;
          pw_since = t.clock () };
      id
    end
  in
  (* The cancellation tag is the *executing* rank (the process that
     blocks here), which for pc waits differs from [rank] (the channel
     owner): killing a rank must wake the workers it hosts, not the
     waiters watching its channels. *)
  let tag = Option.value ~default:Tilelink_sim.Counter.no_tag waiter in
  (if Tilelink_obs.Telemetry.active t.telemetry then begin
     let tele = Option.get t.telemetry in
     let journal = Tilelink_obs.Telemetry.journal tele in
     let journaling = Tilelink_obs.Journal.enabled journal in
     let t0 = t.clock () in
     if journaling then
       Tilelink_obs.Journal.record journal ~t:t0
         (Tilelink_obs.Journal.Wait_begin { key; rank; threshold });
     Tilelink_sim.Counter.await_ge ~tag counter threshold;
     let t1 = t.clock () in
     if journaling then
       Tilelink_obs.Journal.record journal ~t:t1
         (Tilelink_obs.Journal.Wait_end
            { key; rank; threshold; started = t0 });
     let metrics = Tilelink_obs.Telemetry.metrics tele in
     Tilelink_obs.Metrics.inc metrics kind.waits;
     Tilelink_obs.Metrics.observe metrics kind.wait_us (t1 -. t0);
     (* Only a wait that actually blocked becomes a stall span; an
        immediately satisfied wait has no causal weight. *)
     if t1 > t0 then
       Tilelink_obs.Span.record_wait
         (Tilelink_obs.Telemetry.spans tele)
         ~label:kind.wait
         ~rank:(Option.value ~default:rank waiter)
         ~worker:(Option.value ~default:(-1) worker)
         ~key ~threshold ~t0 ~t1
   end
   else Tilelink_sim.Counter.await_ge ~tag counter threshold);
  if id >= 0 then Hashtbl.remove t.pending id

let create ~world_size ~channels_per_rank ?(peer_channels = 1) ?telemetry
    ?(clock = fun () -> 0.0) ?interceptor ?scheduler () =
  if world_size <= 0 then invalid_arg "Channel.create: world_size";
  if channels_per_rank <= 0 then
    invalid_arg "Channel.create: channels_per_rank";
  let by_key = Hashtbl.create 64 in
  let mk name =
    let c = Tilelink_sim.Counter.create ~name () in
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
    intended = Hashtbl.create 64;
    pending = Hashtbl.create 16;
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
  Hashtbl.fold (fun _ pw acc -> pw :: acc) t.pending []
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
          let counter = Tilelink_sim.Counter.create ~name () in
          Hashtbl.add t.by_key name counter;
          counter)
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

let key_value t ~key = Option.map Tilelink_sim.Counter.value (find_key t key)

(* The watchdog's re-issue path: idempotent (set-at-least, not add) and
   deliberately bypasses the interceptor — a recovery action must not
   itself be faulted away silently; the chaos schedule models lossy
   retries separately. *)
let force_signal t ~key ~target =
  match find_key t key with
  | None -> invalid_arg (Printf.sprintf "Channel.force_signal: unknown key %s" key)
  | Some c -> Tilelink_sim.Counter.set_at_least c target

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
  let cancel c = n := !n + Tilelink_sim.Counter.cancel_tag c ~tag:rank in
  Array.iter (Array.iter cancel) t.pc;
  Array.iter (Array.iter (Option.iter (Array.iter cancel))) t.peer;
  Array.iter (Array.iter cancel) t.host;
  !n

(* Producer/consumer channel on [rank]. *)
let pc_notify ?worker t ~rank ~channel ~amount =
  check_rank t rank "pc_notify";
  check_channel t channel "pc_notify";
  notify_instr ?worker t ~kind:pc_kind ~rank t.pc.(rank).(channel) ~amount

let pc_wait ?waiter ?worker t ~rank ~channel ~threshold =
  check_rank t rank "pc_wait";
  check_channel t channel "pc_wait";
  wait_instr ?waiter ?worker t ~kind:pc_kind ~rank t.pc.(rank).(channel)
    ~threshold

let pc_value t ~rank ~channel =
  check_rank t rank "pc_value";
  check_channel t channel "pc_value";
  Tilelink_sim.Counter.value t.pc.(rank).(channel)

(* Peer channel: [src] signals [dst]. *)
let peer_notify ?worker t ~src ~dst ?(channel = 0) ~amount () =
  check_rank t src "peer_notify";
  check_rank t dst "peer_notify";
  notify_instr ?worker t ~kind:peer_kind ~rank:src
    (peer_row t ~dst ~src).(channel) ~amount

let peer_wait ?waiter ?worker t ~src ~dst ?(channel = 0) ~threshold () =
  check_rank t src "peer_wait";
  check_rank t dst "peer_wait";
  wait_instr ?waiter ?worker t ~kind:peer_kind ~rank:dst
    (peer_row t ~dst ~src).(channel) ~threshold

let peer_value t ~src ~dst ?(channel = 0) () =
  Tilelink_sim.Counter.value (peer_row t ~dst ~src).(channel)

(* Host channel: copy-engine completion signalled to [dst]'s kernels. *)
let host_notify ?worker t ~src ~dst ~amount =
  check_rank t src "host_notify";
  check_rank t dst "host_notify";
  notify_instr ?worker t ~kind:host_kind ~rank:src t.host.(dst).(src) ~amount

let host_wait ?waiter ?worker t ~src ~dst ~threshold =
  check_rank t src "host_wait";
  check_rank t dst "host_wait";
  wait_instr ?waiter ?worker t ~kind:host_kind ~rank:dst t.host.(dst).(src)
    ~threshold

let total_notifies t =
  let sum = ref 0 in
  let count c = sum := !sum + Tilelink_sim.Counter.notify_count c in
  Array.iter (Array.iter count) t.pc;
  Array.iter (Array.iter (Option.iter (Array.iter count))) t.peer;
  Array.iter (Array.iter count) t.host;
  !sum
