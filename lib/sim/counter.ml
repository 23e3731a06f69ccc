(* Waitable monotonic counter.

   This is the simulator-level carrier for barrier channels: notify
   primitives add to a counter with release semantics, wait primitives
   park until the counter reaches a threshold.  This is the GPU's
   [red.release] / [ld.global.acquire] spin loop collapsed into an
   event subscription. *)

type waiter = { threshold : int; resume : unit -> unit; tag : int }

type t = {
  name : string;
  mutable value : int;
  mutable waiters : waiter list;
  mutable notify_count : int;
}

let no_tag = -1

let create ?(name = "counter") () =
  { name; value = 0; waiters = []; notify_count = 0 }

let name t = t.name
let value t = t.value
let notify_count t = t.notify_count

let wake t =
  let ready, still =
    List.partition (fun w -> t.value >= w.threshold) t.waiters
  in
  t.waiters <- still;
  (* Wake in registration order: the list is LIFO, so reverse. *)
  List.iter (fun w -> w.resume ()) (List.rev ready)

let add t delta =
  if delta <= 0 then invalid_arg "Counter.add: delta must be > 0";
  t.value <- t.value + delta;
  t.notify_count <- t.notify_count + 1;
  wake t

let set_at_least t target =
  if target > t.value then begin
    t.value <- target;
    t.notify_count <- t.notify_count + 1;
    wake t
  end

let when_ge ?(tag = no_tag) t threshold resume =
  t.waiters <- { threshold; resume; tag } :: t.waiters

(* Cancel-by-tag: wake every waiter registered under [tag] without
   raising the counter value.  The resumed process observes an
   unsatisfied threshold and must decide for itself what to do (a dead
   rank's worker abandons its task).  Returns how many were woken. *)
let cancel_tag t ~tag =
  if tag = no_tag then invalid_arg "Counter.cancel_tag: reserved tag";
  let cancelled, still = List.partition (fun w -> w.tag = tag) t.waiters in
  t.waiters <- still;
  List.iter (fun w -> w.resume ()) (List.rev cancelled);
  List.length cancelled

let reset t =
  if t.waiters <> [] then invalid_arg "Counter.reset: waiters present";
  t.value <- 0;
  t.notify_count <- 0
