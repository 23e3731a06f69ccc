(* Discrete-event simulation core.

   The engine owns a virtual clock and a priority queue of thunks.  All
   higher layers (processes, resources, links) reduce to scheduling
   thunks at future instants.  Times are in microseconds throughout the
   code base. *)

exception Deadlock of string

type t = {
  mutable now : float;
  events : (unit -> unit) Pqueue.t;
  mutable executed : int;
  mutable live_processes : int;
  mutable blocked_processes : int;
  (* ∫ blocked_processes dt, folded up to [last_blocked_change]: the
     aggregate time processes spent parked on conditions, the
     engine-level "how stalled was this run" number telemetry reports. *)
  mutable blocked_integral : float;
  mutable last_blocked_change : float;
}

let create () =
  {
    now = 0.0;
    events = Pqueue.create ();
    executed = 0;
    live_processes = 0;
    blocked_processes = 0;
    blocked_integral = 0.0;
    last_blocked_change = 0.0;
  }

let now t = t.now
let executed_events t = t.executed
let pending_events t = Pqueue.length t.events

(* One comparison admits the valid case; it fails on NaN too, which
   would otherwise reach the queue as a priority that orders nowhere. *)
let schedule t ~delay thunk =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule: NaN delay"
       else "Engine.schedule: negative delay");
  Pqueue.push t.events (t.now +. delay) thunk

let schedule_at t ~time thunk =
  if not (time >= t.now) then
    invalid_arg
      (if Float.is_nan time then "Engine.schedule_at: NaN time"
       else "Engine.schedule_at: time in the past");
  Pqueue.push t.events time thunk

(* Process accounting lets [run] distinguish normal completion from a
   deadlock: if live processes remain but every one of them is blocked
   on a condition nobody will signal, the event queue drains while work
   is still outstanding. *)
let process_started t = t.live_processes <- t.live_processes + 1
let process_finished t = t.live_processes <- t.live_processes - 1

let fold_blocked t =
  t.blocked_integral <-
    t.blocked_integral
    +. (float_of_int t.blocked_processes *. (t.now -. t.last_blocked_change));
  t.last_blocked_change <- t.now

let process_blocked t =
  fold_blocked t;
  t.blocked_processes <- t.blocked_processes + 1

let process_unblocked t =
  fold_blocked t;
  t.blocked_processes <- t.blocked_processes - 1

let blocked_time t =
  t.blocked_integral
  +. (float_of_int t.blocked_processes *. (t.now -. t.last_blocked_change))

let blocked_processes t = t.blocked_processes
let live_processes t = t.live_processes

let step t =
  if Pqueue.is_empty t.events then false
  else begin
    t.now <- Pqueue.min_priority t.events;
    let thunk = Pqueue.take t.events in
    t.executed <- t.executed + 1;
    thunk ();
    true
  end

(* The [until] match is hoisted out of the loop: the unbounded path
   pays one queue pop per event and the bounded path one peek + one pop,
   instead of re-deciding the mode and re-peeking every iteration. *)
let run ?until t =
  (match until with
  | None ->
    let rec drain () = if step t then drain () in
    drain ()
  | Some limit ->
    let rec drain () =
      if
        (not (Pqueue.is_empty t.events))
        && Pqueue.min_priority t.events <= limit
      then begin
        ignore (step t);
        drain ()
      end
    in
    drain ());
  (match until with
  | Some limit when limit > t.now && Pqueue.is_empty t.events -> t.now <- limit
  | _ -> ());
  if Pqueue.is_empty t.events && t.live_processes > 0 then
    raise
      (Deadlock
         (Printf.sprintf
            "simulation deadlock: %d process(es) still blocked at t=%.3f"
            t.blocked_processes t.now))
