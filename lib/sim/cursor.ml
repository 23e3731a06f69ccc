(* Callback processes.  The engine calls [step] directly; [wake] is
   built once at creation and reads the current [step] when it fires,
   so a park and its wake allocate nothing here. *)

type t = {
  engine : Engine.t;
  mutable step : unit -> unit;
  mutable parked : bool;
  mutable wake : unit -> unit;
}

let create engine =
  let t = { engine; step = ignore; parked = false; wake = ignore } in
  t.wake <-
    (fun () ->
      if not t.parked then invalid_arg "Cursor: woken while not parked";
      t.parked <- false;
      Engine.process_unblocked engine;
      Engine.schedule engine ~delay:0.0 t.step);
  t

let set_step t step = t.step <- step

let start t first =
  Engine.process_started t.engine;
  Engine.schedule t.engine ~delay:0.0 first

let wait t dt =
  if dt < 0.0 then invalid_arg "Cursor.wait: negative duration";
  Engine.schedule t.engine ~delay:dt t.step

let park t =
  if t.parked then invalid_arg "Cursor.park: already parked";
  t.parked <- true;
  Engine.process_blocked t.engine

let waker t = t.wake
let finish t = Engine.process_finished t.engine
