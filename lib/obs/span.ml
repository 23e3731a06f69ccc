(* Causal spans: the per-tile event record the critical-path profiler
   reads.

   Each span is one interval of work (or stall) attributed to a rank,
   carrying happens-before predecessor edges:
   - worker chaining: consecutive spans executed by the same worker
     process are program-ordered, so each task span points at the
     previous span on its worker;
   - notify issue: a Notify span points at the span its issuing worker
     had just finished (the cursor captured at issue time), so the
     signal inherits the producer's history even though delivery may be
     deferred by a fault interceptor;
   - wait resolution: a Wait_stall span points at the delivery that
     satisfied its threshold — the first Notify/Retry recorded on the
     key whose post-delivery counter value reached the threshold.
     Counter values are monotonic, so "first value >= threshold" is
     well defined under duplicated, delayed and force-signalled
     deliveries alike.

   Predecessor ids are always smaller than the successor's id and every
   predecessor ends no later than its successor (deliveries happen at
   the wait's release time at the latest), which is what lets the
   critical-path walk terminate and telescope exactly. *)

type kind = Compute | Copy | Wait_stall | Notify | Retry | Replay

let kind_to_string = function
  | Compute -> "compute"
  | Copy -> "copy"
  | Wait_stall -> "wait_stall"
  | Notify -> "notify"
  | Retry -> "retry"
  | Replay -> "replay"

type span = {
  id : int;
  kind : kind;
  label : string;
  rank : int;
  worker : int;  (* -1 when the span is not worker-chained *)
  t0 : float;
  t1 : float;
  key : string option;  (* signal key for Notify/Retry/Wait_stall *)
  value : int option;  (* delivered counter value (Notify/Retry) *)
  preds : int list;
}

type t = {
  (* Recorded spans, newest first: appending never copies the spans
     already recorded. *)
  mutable newest_first : span list;
  mutable len : int;
  mutable next_worker : int;
  (* Last span id recorded on each worker, indexed by worker id (ids
     are dense from 0), -1 before its first span: the program-order
     chain. *)
  mutable last_on_worker : int array;
  (* Per key, chronological (span id, delivered value) of every
     delivery (Notify and watchdog Retry spans) — the wait-resolution
     search space. *)
  candidates : (string, (int * int) list ref) Hashtbl.t;
  lock : Mutex.t;
  (* Serializes recording: span ids come from [len], so id allocation
     and store append must be one atomic step when parallel-backend
     worker domains record concurrently.  The [enabled] check stays
     outside the lock, and recorders lock and unlock it directly rather
     than allocate a [Mutex.protect] closure per span (nothing inside
     can raise). *)
  mutable enabled : bool;
}

let create ?(enabled = true) () =
  {
    newest_first = [];
    len = 0;
    next_worker = 0;
    last_on_worker = [||];
    candidates = Hashtbl.create 32;
    lock = Mutex.create ();
    enabled;
  }

let enabled t = t.enabled
let set_enabled t flag = t.enabled <- flag
let length t = t.len

let fresh_worker t =
  Mutex.lock t.lock;
  let w = t.next_worker in
  t.next_worker <- w + 1;
  Mutex.unlock t.lock;
  w

(* A worker's cursor is written only by spans recorded on it, so the
   worker reading its own cursor needs no lock. *)
let last_on t ~worker =
  if worker >= 0 && worker < Array.length t.last_on_worker then
    t.last_on_worker.(worker)
  else -1

let cursor t ~worker =
  match last_on t ~worker with -1 -> None | id -> Some id

let push t span =
  t.newest_first <- span :: t.newest_first;
  t.len <- t.len + 1

let chain t ~worker =
  match last_on t ~worker with -1 -> [] | prev -> [ prev ]

(* Under the lock: move [worker]'s cursor to [id], growing the cursor
   array on a worker's first span. *)
let advance t ~worker id =
  if worker >= 0 then begin
    let cap = Array.length t.last_on_worker in
    if worker >= cap then begin
      let grown = Array.make (max 16 (max (2 * cap) (worker + 1))) (-1) in
      Array.blit t.last_on_worker 0 grown 0 cap;
      t.last_on_worker <- grown
    end;
    t.last_on_worker.(worker) <- id
  end

let record_task t ~kind ~label ~rank ~worker ~t0 ~t1 =
  if t.enabled then begin
    Mutex.lock t.lock;
    let id = t.len in
    let preds = chain t ~worker in
    push t
      { id; kind; label; rank; worker; t0; t1; key = None; value = None; preds };
    advance t ~worker id;
    Mutex.unlock t.lock
  end

let add_candidate t ~key ~id ~value =
  match Hashtbl.find_opt t.candidates key with
  | Some cell -> cell := (id, value) :: !cell
  | None -> Hashtbl.replace t.candidates key (ref [ (id, value) ])

(* A delivery: recorded at the instant the counter is raised, carrying
   the post-delivery value.  [pred] is the issuing worker's cursor at
   issue time — the causal history the signal propagates.  Not
   worker-chained: delivery can happen on the scheduler's time, long
   after the issuing worker moved on. *)
let record_notify ?pred t ~label ~rank ~key ~value ~t:at =
  if t.enabled then begin
    Mutex.lock t.lock;
    let id = t.len in
    let preds = match pred with Some p -> [ p ] | None -> [] in
    push t
      {
        id;
        kind = Notify;
        label;
        rank;
        worker = -1;
        t0 = at;
        t1 = at;
        key = Some key;
        value = Some value;
        preds;
      };
    add_candidate t ~key ~id ~value;
    Mutex.unlock t.lock
  end

(* A watchdog re-issue that force-raised [key] to [value]: chained on
   the watchdog's own worker and registered as a delivery so waits it
   released resolve onto it. *)
let record_retry t ~label ~rank ~worker ~key ~value ~t0 ~t1 =
  if t.enabled then begin
    Mutex.lock t.lock;
    let id = t.len in
    let preds = chain t ~worker in
    push t
      {
        id;
        kind = Retry;
        label;
        rank;
        worker;
        t0;
        t1;
        key = Some key;
        value = Some value;
        preds;
      };
    advance t ~worker id;
    add_candidate t ~key ~id ~value;
    Mutex.unlock t.lock
  end

(* The delivery that released a wait: the chronologically first one on
   the key whose post-delivery value met the threshold.  Candidate
   lists are newest-first, so scan a reversed copy. *)
let resolve t ~key ~threshold =
  match Hashtbl.find_opt t.candidates key with
  | None -> None
  | Some cell ->
    List.fold_left
      (fun acc (id, value) -> if value >= threshold then Some id else acc)
      None !cell

let record_wait t ~label ~rank ~worker ~key ~threshold ~t0 ~t1 =
  if t.enabled then begin
    Mutex.lock t.lock;
    let id = t.len in
    let preds =
      chain t ~worker
      @ (match resolve t ~key ~threshold with Some p -> [ p ] | None -> [])
    in
    push t
      {
        id;
        kind = Wait_stall;
        label;
        rank;
        worker;
        t0;
        t1;
        key = Some key;
        value = None;
        preds;
      };
    advance t ~worker id;
    Mutex.unlock t.lock
  end

let spans t = List.rev t.newest_first

let span_to_json s =
  Json.Obj
    ([
       ("id", Json.Num (float_of_int s.id));
       ("kind", Json.Str (kind_to_string s.kind));
       ("label", Json.Str s.label);
       ("rank", Json.Num (float_of_int s.rank));
       ("worker", Json.Num (float_of_int s.worker));
       ("t0", Json.Num s.t0);
       ("t1", Json.Num s.t1);
     ]
    @ (match s.key with Some k -> [ ("key", Json.Str k) ] | None -> [])
    @ (match s.value with
      | Some v -> [ ("value", Json.Num (float_of_int v)) ]
      | None -> [])
    @ [
        ( "preds",
          Json.List (List.map (fun p -> Json.Num (float_of_int p)) s.preds) );
      ])

let to_json t = Json.List (List.map span_to_json (spans t))
