(* Tests for the discrete-event simulation substrate. *)

open Tilelink_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

(* One pop: the minimum's priority and payload. *)
let pop q =
  if Pqueue.is_empty q then None
  else
    let priority = Pqueue.min_priority q in
    Some (priority, Pqueue.take q)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 3.0 "c";
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "b";
  let pop () =
    match pop q with Some (_, x) -> x | None -> "?"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun s -> Pqueue.push q 1.0 s) [ "x"; "y"; "z" ];
  let pop () =
    match pop q with Some (_, x) -> x | None -> "?"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "fifo on equal priority" [ "x"; "y"; "z" ]
    [ first; second; third ]

let test_pqueue_empty () =
  let q : int Pqueue.t = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.check_raises "take raises"
    (Invalid_argument "Pqueue.take: empty queue") (fun () ->
      ignore (Pqueue.take q));
  Alcotest.check_raises "min_priority raises"
    (Invalid_argument "Pqueue.min_priority: empty queue") (fun () ->
      ignore (Pqueue.min_priority q))

(* The heap must clear vacated slots on pop: a payload dropped by the
   caller has to be collectable even while the queue itself stays
   live.  [build] keeps every strong reference inside its own frame so
   only the (possibly leaked) heap slot could keep the payload alive. *)
let test_pqueue_pop_releases_payload () =
  let build () =
    let q = Pqueue.create () in
    let w = Weak.create 1 in
    let v = ref 42 in
    Weak.set w 0 (Some v);
    Pqueue.push q 1.0 v;
    Pqueue.push q 2.0 (ref 0);
    ignore (Pqueue.take q);
    (q, w)
  in
  let q, w = build () in
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check w 0);
  Alcotest.(check int) "queue still usable" 1 (Pqueue.length q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  let build () =
    let w = Weak.create 1 in
    let v = ref 7 in
    Weak.set w 0 (Some v);
    Pqueue.push q 1.0 v;
    Pqueue.push q 2.0 (ref 0);
    w
  in
  let w = build () in
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q);
  Gc.full_major ();
  Alcotest.(check bool) "cleared payloads collected" false (Weak.check w 0);
  (* The insertion sequence restarts, so FIFO tie-breaking behaves like
     a fresh queue. *)
  List.iter (fun v -> Pqueue.push q 1.0 (ref v)) [ 1; 2 ];
  let pop () =
    match pop q with Some (_, x) -> !x | None -> -1
  in
  let first = pop () in
  let second = pop () in
  Alcotest.(check (list int)) "fifo after clear" [ 1; 2 ] [ first; second ]

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority order"
    ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p ()) priorities;
      let rec drain last =
        match pop q with
        | None -> true
        | Some (p, ()) -> p >= last && drain p
      in
      drain neg_infinity)

(* The reference queue: the binary min-heap on (priority, insertion
   sequence) that the event loop used before the two-level queue.  It
   pops in (priority, push order) by construction, so the model-based
   property below checks [Pqueue] against it op for op. *)
module Reference_heap = struct
  type 'a t = {
    mutable prio : float array;
    mutable seqs : int array;
    mutable payloads : 'a option array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create () =
    { prio = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

  let length t = t.size

  let lt t a b =
    t.prio.(a) < t.prio.(b)
    || (t.prio.(a) = t.prio.(b) && t.seqs.(a) < t.seqs.(b))

  let swap t a b =
    let p = t.prio.(a) and s = t.seqs.(a) and v = t.payloads.(a) in
    t.prio.(a) <- t.prio.(b);
    t.seqs.(a) <- t.seqs.(b);
    t.payloads.(a) <- t.payloads.(b);
    t.prio.(b) <- p;
    t.seqs.(b) <- s;
    t.payloads.(b) <- v

  let rec sift_up t i =
    let parent = (i - 1) / 2 in
    if i > 0 && lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 in
    let c = if l < t.size && lt t l i then l else i in
    let c = if l + 1 < t.size && lt t (l + 1) c then l + 1 else c in
    if c <> i then begin
      swap t i c;
      sift_down t c
    end

  let push t priority payload =
    if t.size = Array.length t.prio then begin
      let grow a fill = Array.append a (Array.make (max 16 t.size) fill) in
      t.prio <- grow t.prio 0.0;
      t.seqs <- grow t.seqs 0;
      t.payloads <- grow t.payloads None
    end;
    let i = t.size in
    t.prio.(i) <- priority;
    t.seqs.(i) <- t.next_seq;
    t.payloads.(i) <- Some payload;
    t.next_seq <- t.next_seq + 1;
    t.size <- i + 1;
    sift_up t i

  let pop t =
    if t.size = 0 then None
    else begin
      let top = (t.prio.(0), Option.get t.payloads.(0)) in
      t.size <- t.size - 1;
      swap t 0 t.size;
      t.payloads.(t.size) <- None;
      sift_down t 0;
      Some top
    end

  let clear t =
    Array.fill t.payloads 0 (Array.length t.payloads) None;
    t.size <- 0;
    t.next_seq <- 0
end

(* Random push/pop interleavings against the reference heap: every pop
   yields the entry with the least (priority, insertion) pair.
   Priorities come from a small set so ties are common. *)
let prop_pqueue_fifo_interleaved =
  QCheck.Test.make
    ~name:"pqueue interleavings pop in (priority, insertion) order"
    ~count:300
    QCheck.(list (option (int_bound 4)))
    (fun ops ->
      let q = Pqueue.create () and r = Reference_heap.create () in
      let next = ref 0 in
      let pop_both () = pop q = Reference_heap.pop r in
      let step = function
        | Some p ->
          let prio = float_of_int p in
          Pqueue.push q prio !next;
          Reference_heap.push r prio !next;
          incr next;
          true
        | None -> pop_both ()
      in
      let rec drain () =
        if Reference_heap.length r = 0 then Pqueue.is_empty q
        else pop_both () && drain ()
      in
      List.for_all step ops && Pqueue.length q = Reference_heap.length r
      && drain ())

type pqueue_op = Push of float | Pop | Clear | Reserve of int

let print_pqueue_op = function
  | Push p -> Printf.sprintf "push %h" p
  | Pop -> "pop"
  | Clear -> "clear"
  | Reserve n -> Printf.sprintf "reserve %d" n

(* Priorities come mostly from [0.0], [-0.0], [1.0] and [infinity], so
   most pushes tie and [0.0] meets [-0.0]; the rest spread over enough
   instants to grow the queue and its table.  Each case draws its own
   pop and clear rates, so some runs drain often and others pile up
   hundreds of entries.  A reservation lands on whatever the queue
   holds then, vacant entries and all, as the runtime's does after the
   crash events are in. *)
let gen_pqueue_ops =
  QCheck.Gen.(
    let priority =
      frequency
        [
          (8, oneofl [ 0.0; -0.0; 1.0; infinity ]);
          (2, map float_of_int (int_bound 40));
          (1, float_bound_exclusive 2.0);
        ]
    in
    let* pop_weight = int_range 1 8 in
    let* clear_weight = int_bound 1 in
    list_size (int_bound 600)
      (frequency
         [
           (8, map (fun p -> Push p) priority);
           (pop_weight, return Pop);
           (clear_weight, return Clear);
           (1, map (fun n -> Reserve n) (int_bound 100));
         ]))

let prop_pqueue_matches_reference =
  QCheck.Test.make ~name:"pqueue matches the reference heap" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_pqueue_op) gen_pqueue_ops)
    (fun ops ->
      let q = Pqueue.create () and r = Reference_heap.create () in
      (* Priorities compare by their bits, so a pop must return the
         zero's sign as pushed. *)
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some (pa, va), Some (pb, vb) ->
          Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb)
          && va = vb
        | _ -> false
      in
      let next = ref 0 in
      let step = function
        | Push p ->
          Pqueue.push q p !next;
          Reference_heap.push r p !next;
          incr next;
          true
        | Pop -> same (pop q) (Reference_heap.pop r)
        | Clear ->
          Pqueue.clear q;
          Reference_heap.clear r;
          true
        | Reserve n ->
          Pqueue.reserve q n;
          true
      in
      let rec drain () =
        let a = pop q in
        same a (Reference_heap.pop r) && (a = None || drain ())
      in
      List.for_all
        (fun op -> step op && Pqueue.length q = Reference_heap.length r)
        ops
      && drain ())

(* [0.0] and [-0.0] are one instant: they tie under [=], so they pop in
   push order and each keeps its own sign. *)
let test_pqueue_signed_zero_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 0.0 "a";
  Pqueue.push q (-0.0) "b";
  Pqueue.push q 0.0 "c";
  let pops = List.init 3 (fun _ -> Option.get (pop q)) in
  Alcotest.(check (list string)) "push order" [ "a"; "b"; "c" ]
    (List.map snd pops);
  Alcotest.(check (list bool)) "signs as pushed" [ false; true; false ]
    (List.map (fun (p, _) -> Float.sign_bit p) pops)

(* Once the queue has grown to its working size, pushing (to a live
   instant or a new one) and popping allocate nothing.  Priorities are
   read from a list, so none is boxed inside the measured loop. *)
let test_pqueue_steady_state_allocates_nothing () =
  let q = Pqueue.create () in
  let priorities = List.init 64 (fun i -> float_of_int (i mod 5 * (i mod 3))) in
  let rec push_all = function
    | [] -> ()
    | p :: rest ->
      Pqueue.push q p ();
      push_all rest
  in
  let rec take_all = function
    | [] -> ()
    | _ :: rest ->
      Pqueue.take q;
      take_all rest
  in
  let cycle () =
    push_all priorities;
    take_all priorities
  in
  cycle ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    cycle ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words over 12,800 ops" 0.0 words

(* ------------------------------------------------------------------ *)
(* Engine + cursors                                                    *)
(* ------------------------------------------------------------------ *)

(* Sequential test processes over one cursor, in continuation-passing
   style: each wait or park installs what runs next as the step. *)
let wait c dt k =
  Cursor.set_step c k;
  Cursor.wait c dt

let park c register k =
  Cursor.set_step c k;
  Cursor.park c;
  register (Cursor.waker c)

(* Start [body] on a fresh cursor at the current instant; the process
   finishes when [body] calls its continuation. *)
let spawn engine body =
  let c = Cursor.create engine in
  Cursor.start c (fun () -> body c (fun () -> Cursor.finish c))

let await_ge c counter threshold k =
  if Counter.value counter < threshold then
    park c (Counter.when_ge counter threshold) k
  else k ()

let acquire c r amount k =
  if Resource.try_acquire r amount then k ()
  else park c (Resource.enqueue r amount) k

(* Hold [amount] units of [r] while [f] runs. *)
let use c r amount f k =
  acquire c r amount (fun () ->
      f (fun () ->
          Resource.release r amount;
          k ()))

(* A transfer's phases: admission, wire time sampled at admission, then
   latency. *)
let transfer c link ~bytes k =
  let wire () =
    wait c (Bandwidth.wire_time link ~bytes) (fun () ->
        Bandwidth.wire_done link ~bytes;
        wait c (Bandwidth.latency link) k)
  in
  if Bandwidth.try_admit link then wire ()
  else park c (Bandwidth.admit_later link) wire

let test_clock_advances () =
  let engine = Engine.create () in
  let finished = ref (-1.0) in
  spawn engine (fun c k ->
      wait c 5.0 (fun () ->
          wait c 2.5 (fun () ->
              finished := Engine.now engine;
              k ())));
  Engine.run engine;
  check_float "ends at 7.5" 7.5 !finished

let test_processes_interleave () =
  let engine = Engine.create () in
  let log = ref [] in
  let emit tag () = log := (tag, Engine.now engine) :: !log in
  spawn engine (fun c k ->
      emit "a0" ();
      wait c 10.0 (fun () ->
          emit "a1" ();
          k ()));
  spawn engine (fun c k ->
      wait c 4.0 (fun () ->
          emit "b0" ();
          wait c 4.0 (fun () ->
              emit "b1" ();
              k ())));
  Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9))))
    "interleaving order"
    [ ("a0", 0.0); ("b0", 4.0); ("b1", 8.0); ("a1", 10.0) ]
    (List.rev !log)

let test_spawn_at () =
  let engine = Engine.create () in
  let t = ref 0.0 in
  Engine.schedule engine ~delay:3.0 (fun () ->
      spawn engine (fun _ k ->
          t := Engine.now engine;
          k ()));
  Engine.run engine;
  check_float "starts at 3" 3.0 !t

let test_nan_delay_rejected () =
  let engine = Engine.create () in
  Alcotest.check_raises "schedule" (Invalid_argument "Engine.schedule: NaN delay")
    (fun () -> Engine.schedule engine ~delay:Float.nan ignore);
  Engine.run engine;
  Alcotest.(check int) "nothing queued" 0 (Engine.executed_events engine)

let test_nan_time_rejected () =
  let engine = Engine.create () in
  Alcotest.check_raises "schedule_at"
    (Invalid_argument "Engine.schedule_at: NaN time") (fun () ->
      Engine.schedule_at engine ~time:Float.nan ignore);
  Engine.run engine;
  Alcotest.(check int) "nothing queued" 0 (Engine.executed_events engine)

(* A fan-out: a parent starts three children and parks until the last
   of them ends, which wakes it. *)
let test_join_latch () =
  let engine = Engine.create () in
  let joined_at = ref (-1.0) in
  spawn engine (fun parent k ->
      let remaining = ref 3 in
      List.iter
        (fun dt ->
          spawn engine (fun c k ->
              wait c dt (fun () ->
                  decr remaining;
                  if !remaining = 0 then Cursor.waker parent ();
                  k ())))
        [ 3.0; 7.0; 1.0 ];
      park parent ignore (fun () ->
          joined_at := Engine.now engine;
          k ()));
  Engine.run engine;
  check_float "join waits for slowest" 7.0 !joined_at;
  Alcotest.(check int) "every process finished" 0
    (Engine.live_processes engine)

let test_deadlock_detection () =
  let engine = Engine.create () in
  (* Park with a register that never wakes. *)
  spawn engine (fun c k -> park c (fun _wake -> ()) k);
  Alcotest.check_raises "deadlock raised"
    (Engine.Deadlock
       "simulation deadlock: 1 process(es) still blocked at t=0.000")
    (fun () -> Engine.run engine)

let test_negative_wait_rejected () =
  let engine = Engine.create () in
  let raised = ref false in
  spawn engine (fun c k ->
      (try wait c (-1.0) ignore with Invalid_argument _ -> raised := true);
      k ());
  Engine.run engine;
  Alcotest.(check bool) "invalid_arg" true !raised

(* ------------------------------------------------------------------ *)
(* Cursor                                                              *)
(* ------------------------------------------------------------------ *)

(* The same stream written with one fixed step and with a continuation
   per phase — wait 5, wait 2.5, block on a counter a second process
   raises at t=10, then wait 1 — must book the same events, blocked
   time and finish time: one event per start, wait and wake. *)
let test_cursor_step_styles_agree () =
  let run body =
    let engine = Engine.create () in
    let c = Counter.create () in
    let finished = ref nan in
    body engine c finished;
    spawn engine (fun cur k ->
        wait cur 10.0 (fun () ->
            Counter.add c 1;
            k ()));
    Engine.run engine;
    ( Engine.executed_events engine,
      Engine.blocked_time engine,
      !finished,
      Engine.live_processes engine )
  in
  let as_continuations engine c finished =
    spawn engine (fun cur k ->
        wait cur 5.0 (fun () ->
            wait cur 2.5 (fun () ->
                await_ge cur c 1 (fun () ->
                    wait cur 1.0 (fun () ->
                        finished := Engine.now engine;
                        k ())))))
  in
  let as_fixed_step engine c finished =
    let cur = Cursor.create engine in
    let phase = ref 0 in
    Cursor.set_step cur (fun () ->
        incr phase;
        match !phase with
        | 1 -> Cursor.wait cur 2.5
        | 2 ->
          Cursor.park cur;
          Counter.when_ge c 1 (Cursor.waker cur)
        | 3 -> Cursor.wait cur 1.0
        | _ ->
          finished := Engine.now engine;
          Cursor.finish cur);
    Cursor.start cur (fun () -> Cursor.wait cur 5.0)
  in
  let pe, pb, pf, pl = run as_continuations
  and ce, cb, cf, cl = run as_fixed_step in
  Alcotest.(check int) "events" pe ce;
  Alcotest.(check int) "5 + 2 events" 7 ce;
  check_float "blocked time" pb cb;
  check_float "blocked from 7.5 to 10" 2.5 cb;
  check_float "finish" pf cf;
  check_float "finish at" 11.0 cf;
  Alcotest.(check int) "no live process" pl cl

(* A second wake of one park raises; so does waking a cursor that
   never parked. *)
let test_cursor_double_wake () =
  let engine = Engine.create () in
  let cur = Cursor.create engine in
  Alcotest.check_raises "wake before park"
    (Invalid_argument "Cursor: woken while not parked")
    (fun () -> Cursor.waker cur ());
  Cursor.park cur;
  Cursor.waker cur ();
  Alcotest.check_raises "second wake"
    (Invalid_argument "Cursor: woken while not parked")
    (fun () -> Cursor.waker cur ());
  Engine.run engine;
  Alcotest.(check int) "one resume booked" 1 (Engine.executed_events engine)

let test_cursor_negative_wait () =
  let cur = Cursor.create (Engine.create ()) in
  Alcotest.check_raises "negative"
    (Invalid_argument "Cursor.wait: negative duration")
    (fun () -> Cursor.wait cur (-1.0))

(* ------------------------------------------------------------------ *)
(* Resource                                                            *)
(* ------------------------------------------------------------------ *)

let test_resource_blocks_and_grants () =
  let engine = Engine.create () in
  let sms = Resource.create engine ~name:"sm" ~capacity:4 in
  let order = ref [] in
  let worker tag units dt c k =
    use c sms units
      (fun k ->
        wait c dt (fun () ->
            order := (tag, Engine.now engine) :: !order;
            k ()))
      k
  in
  spawn engine (worker "big" 4 10.0);
  spawn engine (worker "small" 1 1.0);
  Engine.run engine;
  (* capacity taken by big, so small runs after. *)
  Alcotest.(check (list (pair string (float 1e-9))))
    "fifo admission"
    [ ("big", 10.0); ("small", 11.0) ]
    (List.rev !order)

let test_resource_concurrent_fit () =
  let engine = Engine.create () in
  let sms = Resource.create engine ~name:"sm" ~capacity:4 in
  let ends = ref [] in
  let worker units dt c k =
    use c sms units
      (fun k ->
        wait c dt (fun () ->
            ends := Engine.now engine :: !ends;
            k ()))
      k
  in
  spawn engine (worker 2 5.0);
  spawn engine (worker 2 5.0);
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "both end at 5" [ 5.0; 5.0 ] !ends

let test_resource_utilization () =
  let engine = Engine.create () in
  let r = Resource.create engine ~name:"u" ~capacity:2 in
  spawn engine (fun c k ->
      use c r 2 (fun k -> wait c 10.0 k) (fun () -> wait c 10.0 k));
  Engine.run engine;
  check_float "busy integral" 20.0 (Resource.busy_time r);
  check_float "utilization 50%" 0.5 (Resource.utilization r ~horizon:20.0)

let test_resource_over_release () =
  let engine = Engine.create () in
  let r = Resource.create engine ~name:"o" ~capacity:1 in
  Alcotest.(check bool) "over release rejected" true
    (try
       Resource.release r 1;
       false
     with Invalid_argument _ -> true)

let test_resource_too_large_request () =
  let engine = Engine.create () in
  let r = Resource.create engine ~name:"x" ~capacity:2 in
  Alcotest.check_raises "oversized request rejected"
    (Invalid_argument "Resource.try_acquire: 3 exceeds capacity 2 of x")
    (fun () -> ignore (Resource.try_acquire r 3));
  Alcotest.check_raises "empty request rejected"
    (Invalid_argument "Resource.try_acquire: amount must be > 0")
    (fun () -> ignore (Resource.try_acquire r 0));
  Alcotest.(check int) "nothing taken" 2 (Resource.available r)

let prop_resource_never_negative =
  QCheck.Test.make ~name:"resource availability stays within [0, capacity]"
    ~count:100
    QCheck.(
      pair (int_range 1 4)
        (small_list (pair (int_range 1 3) (float_bound_exclusive 5.0))))
    (fun (capacity, jobs) ->
      let engine = Engine.create () in
      let r = Resource.create engine ~name:"p" ~capacity in
      let ok = ref true in
      List.iter
        (fun (units, dt) ->
          let units = min units capacity in
          spawn engine (fun c k ->
              use c r units
                (fun k ->
                  if
                    Resource.available r < 0
                    || Resource.available r > capacity
                  then ok := false;
                  wait c (Float.abs dt) k)
                k))
        jobs;
      Engine.run engine;
      !ok && Resource.available r = capacity)

(* ------------------------------------------------------------------ *)
(* Bandwidth                                                           *)
(* ------------------------------------------------------------------ *)

let test_bandwidth_duration () =
  let engine = Engine.create () in
  let link =
    Bandwidth.create engine ~name:"nvl" ~gbps:100.0 ~latency_us:2.0 ()
  in
  (* 100 GB/s = 1e5 B/us; 1e6 bytes take 10us + 2us latency. *)
  check_float "duration" 12.0 (Bandwidth.duration link ~bytes:1.0e6)

let test_bandwidth_serializes () =
  let engine = Engine.create () in
  let link =
    Bandwidth.create engine ~name:"nvl" ~gbps:100.0 ~latency_us:0.0 ()
  in
  let ends = ref [] in
  let sender c k =
    transfer c link ~bytes:1.0e6 (fun () ->
        ends := Engine.now engine :: !ends;
        k ())
  in
  spawn engine sender;
  spawn engine sender;
  Engine.run engine;
  Alcotest.(check (list (float 1e-6)))
    "fifo serialization" [ 20.0; 10.0 ] !ends

let test_bandwidth_streams () =
  let engine = Engine.create () in
  let link =
    Bandwidth.create engine ~name:"mesh" ~gbps:100.0 ~latency_us:0.0
      ~streams:2 ()
  in
  let ends = ref [] in
  let sender c k =
    transfer c link ~bytes:1.0e6 (fun () ->
        ends := Engine.now engine :: !ends;
        k ())
  in
  spawn engine sender;
  spawn engine sender;
  Engine.run engine;
  Alcotest.(check (list (float 1e-6)))
    "parallel streams" [ 10.0; 10.0 ] !ends

let test_bandwidth_accounting () =
  let engine = Engine.create () in
  let link =
    Bandwidth.create engine ~name:"n" ~gbps:50.0 ~latency_us:1.0 ()
  in
  spawn engine (fun c k ->
      transfer c link ~bytes:1000.0 (fun () ->
          transfer c link ~bytes:2000.0 k));
  Engine.run engine;
  check_float "bytes" 3000.0 (Bandwidth.bytes_moved link);
  Alcotest.(check int) "count" 2 (Bandwidth.transfer_count link)

(* ------------------------------------------------------------------ *)
(* Counter                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_wait_release () =
  let engine = Engine.create () in
  let c = Counter.create () in
  let woke_at = ref (-1.0) in
  spawn engine (fun cur k ->
      await_ge cur c 3 (fun () ->
          woke_at := Engine.now engine;
          k ()));
  spawn engine (fun cur k ->
      let rec add i =
        if i = 3 then k ()
        else
          wait cur 2.0 (fun () ->
              Counter.add c 1;
              add (i + 1))
      in
      add 0);
  Engine.run engine;
  check_float "woken when value reaches 3" 6.0 !woke_at

let test_counter_already_satisfied () =
  let engine = Engine.create () in
  let c = Counter.create () in
  Counter.add c 5;
  let woke = ref false in
  spawn engine (fun cur k ->
      await_ge cur c 5 (fun () ->
          woke := true;
          k ()));
  Engine.run engine;
  Alcotest.(check bool) "no blocking when satisfied" true !woke;
  check_float "never blocked" 0.0 (Engine.blocked_time engine)

let test_counter_set_at_least () =
  let engine = Engine.create () in
  let c = Counter.create () in
  Counter.set_at_least c 4;
  Counter.set_at_least c 2;
  Alcotest.(check int) "monotonic" 4 (Counter.value c);
  ignore engine

let test_counter_multiple_waiters () =
  let engine = Engine.create () in
  let c = Counter.create () in
  let woke = ref [] in
  List.iter
    (fun (tag, threshold) ->
      spawn engine (fun cur k ->
          await_ge cur c threshold (fun () ->
              woke := (tag, Engine.now engine) :: !woke;
              k ())))
    [ ("t1", 1); ("t2", 2); ("t3", 3) ];
  spawn engine (fun cur k ->
      wait cur 1.0 (fun () ->
          Counter.add c 2;
          wait cur 1.0 (fun () ->
              Counter.add c 1;
              k ())));
  Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9))))
    "waiters wake by threshold"
    [ ("t1", 1.0); ("t2", 1.0); ("t3", 2.0) ]
    (List.rev !woke)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_busy_time_merges () =
  let tr = Trace.create () in
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"a" ~t0:0.0 ~t1:5.0;
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"b" ~t0:3.0 ~t1:8.0;
  Trace.add tr ~rank:0 ~lane:Trace.Dma ~label:"c" ~t0:10.0 ~t1:12.0;
  check_float "union of overlapping spans" 10.0 (Trace.busy_time tr);
  check_float "filtered"
    2.0
    (Trace.busy_time ~pred:(fun s -> s.Trace.lane = Trace.Dma) tr);
  check_float "duration" 12.0 (Trace.duration tr)

let test_trace_busy_time_nested_adjacent () =
  let tr = Trace.create () in
  (* Nested: [0,10] fully contains [2,4] and [5,9]. *)
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"outer" ~t0:0.0 ~t1:10.0;
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"in1" ~t0:2.0 ~t1:4.0;
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"in2" ~t0:5.0 ~t1:9.0;
  check_float "nested spans collapse" 10.0 (Trace.busy_time tr);
  (* Adjacent: [10,12] touches [12,15] with no gap. *)
  Trace.add tr ~rank:0 ~lane:Trace.Dma ~label:"left" ~t0:10.0 ~t1:12.0;
  Trace.add tr ~rank:0 ~lane:Trace.Dma ~label:"right" ~t0:12.0 ~t1:15.0;
  check_float "adjacent spans fuse" 15.0 (Trace.busy_time tr);
  (* Identical duplicates count once. *)
  Trace.add tr ~rank:1 ~lane:Trace.Dma ~label:"dup" ~t0:20.0 ~t1:21.0;
  Trace.add tr ~rank:1 ~lane:Trace.Dma ~label:"dup" ~t0:20.0 ~t1:21.0;
  check_float "duplicates collapse" 16.0 (Trace.busy_time tr)

let string_contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let test_trace_render_nonempty () =
  let tr = Trace.create () in
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"gemm" ~t0:0.0 ~t1:4.0;
  Trace.add tr ~rank:1 ~lane:Trace.Dma ~label:"copy" ~t0:2.0 ~t1:6.0;
  let s = Trace.render tr in
  Alcotest.(check bool) "mentions compute lane" true
    (string_contains s "compute-sm");
  Alcotest.(check bool) "mentions dma lane" true (string_contains s "dma")

(* ------------------------------------------------------------------ *)
(* More engine / cursor edges                                          *)
(* ------------------------------------------------------------------ *)

let test_nested_spawn () =
  let engine = Engine.create () in
  let log = ref [] in
  spawn engine (fun c k ->
      wait c 1.0 (fun () ->
          Engine.schedule engine ~delay:2.0 (fun () ->
              spawn engine (fun _ k ->
                  log := ("child", Engine.now engine) :: !log;
                  k ()));
          wait c 0.5 (fun () ->
              log := ("parent", Engine.now engine) :: !log;
              k ())));
  Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9))))
    "nested spawn timing"
    [ ("parent", 1.5); ("child", 3.0) ]
    (List.rev !log)

let test_schedule_at () =
  let engine = Engine.create () in
  let t = ref 0.0 in
  Engine.schedule_at engine ~time:7.0 (fun () -> t := Engine.now engine);
  Engine.run engine;
  check_float "fires at absolute time" 7.0 !t;
  Alcotest.(check bool) "past time rejected" true
    (try Engine.schedule_at engine ~time:1.0 (fun () -> ()); false
     with Invalid_argument _ -> true)

let test_engine_counters () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:1.0 (fun () -> ());
  Engine.schedule engine ~delay:2.0 (fun () -> ());
  Engine.run engine;
  Alcotest.(check int) "executed" 2 (Engine.executed_events engine)

(* A zero wait still books an event, behind those already due now. *)
let test_yield_interleaves_same_time () =
  let engine = Engine.create () in
  let log = ref [] in
  spawn engine (fun c k ->
      log := "a1" :: !log;
      wait c 0.0 (fun () ->
          log := "a2" :: !log;
          k ()));
  spawn engine (fun _ k ->
      log := "b" :: !log;
      k ());
  Engine.run engine;
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_bandwidth_zero_bytes () =
  let engine = Engine.create () in
  let link = Bandwidth.create engine ~name:"z" ~gbps:10.0 ~latency_us:2.0 () in
  let t = ref (-1.0) in
  spawn engine (fun c k ->
      transfer c link ~bytes:0.0 (fun () ->
          t := Engine.now engine;
          k ()));
  Engine.run engine;
  check_float "latency only" 2.0 !t

let test_counter_reset () =
  let c = Counter.create () in
  Counter.add c 3;
  Counter.reset c;
  Alcotest.(check int) "reset to zero" 0 (Counter.value c)

let test_trace_disabled_records_nothing () =
  let tr = Trace.create ~enabled:false () in
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"x" ~t0:0.0 ~t1:1.0;
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans tr))

let test_trace_chrome_json_wellformed () =
  let tr = Trace.create () in
  Trace.add tr ~rank:0 ~lane:Trace.Compute_sm ~label:"a\"b" ~t0:0.0 ~t1:1.0;
  Trace.add tr ~rank:1 ~lane:Trace.Dma ~label:"c" ~t0:1.0 ~t1:2.0;
  let json = Trace.to_chrome_json tr in
  Alcotest.(check bool) "array" true
    (String.length json > 2 && json.[0] = '[');
  Alcotest.(check bool) "escaped quote" true
    (string_contains json "a\\\"b");
  Alcotest.(check bool) "both events" true
    (string_contains json "\"pid\":1")

let test_resource_queue_length () =
  let engine = Engine.create () in
  let r = Resource.create engine ~name:"q" ~capacity:1 in
  spawn engine (fun c k -> use c r 1 (fun k -> wait c 5.0 k) k);
  spawn engine (fun c k -> use c r 1 (fun k -> k ()) k);
  spawn engine (fun c k ->
      wait c 1.0 (fun () ->
          Alcotest.(check int) "one waiter" 1 (Resource.queue_length r);
          k ()));
  Engine.run engine

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_stats_percentile () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* Nearest rank: ceil(p/100 * n)-th smallest, no interpolation. *)
  check_float "p50 of 1..10" 5.0 (Stats.percentile 50.0 xs);
  check_float "p90 of 1..10" 9.0 (Stats.percentile 90.0 xs);
  check_float "p91 rounds up" 10.0 (Stats.percentile 91.0 xs);
  check_float "p0 is min" 1.0 (Stats.percentile 0.0 xs);
  check_float "negative p clamps to min" 1.0 (Stats.percentile (-5.0) xs);
  check_float "p100 is max" 10.0 (Stats.percentile 100.0 xs);
  check_float "p>100 clamps to max" 10.0 (Stats.percentile 150.0 xs);
  check_float "singleton" 7.0 (Stats.percentile 99.0 [ 7.0 ]);
  check_float "unsorted input" 3.0
    (Stats.percentile 50.0 [ 9.0; 1.0; 3.0; 2.0; 7.0 ]);
  Alcotest.(check bool) "empty list rejected" true
    (try
       ignore (Stats.percentile 50.0 []);
       false
     with Invalid_argument _ -> true)

(* Regression: NaN samples used to flow straight through the
   [min]/[max] folds and poison every comparison-based aggregate into
   NaN; they must be rejected loudly instead. *)
let test_stats_nan_rejected () =
  let rejects name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  let poisoned = [ 1.0; Float.nan; 3.0 ] in
  rejects "minimum" (fun () -> Stats.minimum poisoned);
  rejects "maximum" (fun () -> Stats.maximum poisoned);
  rejects "percentile" (fun () -> Stats.percentile 50.0 poisoned);
  rejects "all-NaN percentile" (fun () ->
      Stats.percentile 50.0 [ Float.nan ]);
  (* Infinities are orderable and must still pass. *)
  check_float "infinity is a valid sample" 1.0
    (Stats.minimum [ Float.infinity; 1.0 ])

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile stays within [min, max]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_range (-100.0) 100.0))
        (float_range (-10.0) 110.0))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      Stats.minimum xs <= v && v <= Stats.maximum xs)

let test_engine_blocked_time () =
  let engine = Engine.create () in
  let c = Counter.create () in
  spawn engine (fun cur k -> await_ge cur c 1 k);
  spawn engine (fun cur k ->
      wait cur 3.0 (fun () ->
          Counter.add c 1;
          k ()));
  Engine.run engine;
  check_float "one process blocked for 3us" 3.0 (Engine.blocked_time engine);
  Alcotest.(check int) "nobody left blocked" 0
    (Engine.blocked_processes engine)

let prop_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= mean for positive samples" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.1 100.0))
    (fun xs -> Stats.geomean xs <= Stats.mean xs +. 1e-9)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "pop releases payload" `Quick
            test_pqueue_pop_releases_payload;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          qc prop_pqueue_sorts;
          qc prop_pqueue_fifo_interleaved;
          qc prop_pqueue_matches_reference;
          Alcotest.test_case "signed zero ties" `Quick
            test_pqueue_signed_zero_ties;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_pqueue_steady_state_allocates_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "interleaving" `Quick test_processes_interleave;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "join latch" `Quick test_join_latch;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
          Alcotest.test_case "negative wait" `Quick
            test_negative_wait_rejected;
          Alcotest.test_case "NaN delay rejected" `Quick test_nan_delay_rejected;
          Alcotest.test_case "NaN time rejected" `Quick test_nan_time_rejected;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "step styles agree" `Quick
            test_cursor_step_styles_agree;
          Alcotest.test_case "double wake" `Quick test_cursor_double_wake;
          Alcotest.test_case "negative wait" `Quick test_cursor_negative_wait;
        ] );
      ( "resource",
        [
          Alcotest.test_case "blocks and grants" `Quick
            test_resource_blocks_and_grants;
          Alcotest.test_case "concurrent fit" `Quick
            test_resource_concurrent_fit;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "over release" `Quick test_resource_over_release;
          Alcotest.test_case "too large request" `Quick
            test_resource_too_large_request;
          qc prop_resource_never_negative;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "duration" `Quick test_bandwidth_duration;
          Alcotest.test_case "serializes" `Quick test_bandwidth_serializes;
          Alcotest.test_case "streams" `Quick test_bandwidth_streams;
          Alcotest.test_case "accounting" `Quick test_bandwidth_accounting;
        ] );
      ( "counter",
        [
          Alcotest.test_case "wait/release" `Quick test_counter_wait_release;
          Alcotest.test_case "already satisfied" `Quick
            test_counter_already_satisfied;
          Alcotest.test_case "set_at_least" `Quick test_counter_set_at_least;
          Alcotest.test_case "multiple waiters" `Quick
            test_counter_multiple_waiters;
        ] );
      ( "trace",
        [
          Alcotest.test_case "busy time merges" `Quick
            test_trace_busy_time_merges;
          Alcotest.test_case "nested and adjacent spans" `Quick
            test_trace_busy_time_nested_adjacent;
          Alcotest.test_case "render" `Quick test_trace_render_nonempty;
        ] );
      ( "edges",
        [
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "schedule_at" `Quick test_schedule_at;
          Alcotest.test_case "engine counters" `Quick test_engine_counters;
          Alcotest.test_case "yield" `Quick test_yield_interleaves_same_time;
          Alcotest.test_case "zero-byte transfer" `Quick
            test_bandwidth_zero_bytes;
          Alcotest.test_case "counter reset" `Quick test_counter_reset;
          Alcotest.test_case "trace disabled" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "chrome json" `Quick
            test_trace_chrome_json_wellformed;
          Alcotest.test_case "resource queue length" `Quick
            test_resource_queue_length;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "NaN rejected" `Quick test_stats_nan_rejected;
          qc prop_geomean_le_mean;
          qc prop_percentile_bounded;
        ] );
      ( "blocked time",
        [
          Alcotest.test_case "counter wait accounted" `Quick
            test_engine_blocked_time;
        ] );
    ]
