(* Parallel execution substrate: a persistent OCaml 5 domain team
   driving cooperative instruction streams over atomic monotonic
   counters.

   This is the generic half of the parallel backend (the tilelink side
   lowers a mapped program onto it, see lib/tilelink/parallel.ml): a
   [stream] is a straight-line array of ops — side-effecting [Exec]
   work, [Notify] (monotonic fetch-and-add, release), [Wait] (blocks
   until a counter reaches a threshold, acquire).  Streams are pinned
   to a home worker (rank mod team size); each worker domain advances
   its streams cooperatively, switching streams only at unsatisfied
   waits, exactly the maximally-parallel stream model the static
   analyzer's fixpoint executes — which is what makes "analyzer-clean
   implies deadlock-free here" a theorem rather than a hope, for any
   team size >= 1.

   Memory model.  OCaml's [Atomic] operations are sequentially
   consistent, which is strictly stronger than the release/acquire
   pair the TileLink protocol needs: a producer's plain tensor writes
   happen-before its [Notify] fetch-and-add (release), and a
   consumer's acquire load in [Wait] that observes the bumped counter
   happens-before its subsequent plain reads.  Per the OCaml memory
   model (local DRF), that publication edge makes the data transfer
   race-free without any further fencing.

   Park/spin protocol.  A worker whose streams are all blocked first
   spins re-checking counters ([spin_rounds] iterations of
   [Domain.cpu_relax]), then parks on a Condition.  Lost wakeups are
   impossible by the usual monitor argument: every notify increments
   [wake_seq] *under the team lock* and broadcasts if anyone is
   parked, and a would-be parker re-checks [wake_seq] under the same
   lock before waiting.  When every worker that still owns unfinished
   streams is parked at once, no future notify can arrive (workers are
   the only notifiers), so the team declares a structured [Deadlock]
   listing each blocked wait instead of hanging. *)

type counter = { key : string; cell : int Atomic.t }

let counter key = { key; cell = Atomic.make 0 }
let counter_value c = Atomic.get c.cell

type op =
  | Exec of { label : string; run : unit -> unit }
  | Wait of { counter : counter; threshold : int }
  | Notify of { counter : counter; amount : int }

type stream = {
  s_label : string;
  s_home : int;
  ops : op array;
  mutable pc : int;
}

let stream ~label ~home ops =
  { s_label = label; s_home = home; ops = Array.of_list ops; pc = 0 }

type domain_stats = {
  d_streams : int;
  d_execs : int;
  d_notifies : int;
  d_busy_s : float;
  d_parks : int;
  d_spins : int;
}

let zero_stats =
  {
    d_streams = 0;
    d_execs = 0;
    d_notifies = 0;
    d_busy_s = 0.0;
    d_parks = 0;
    d_spins = 0;
  }

type stats = {
  wall_s : float;
  per_domain : domain_stats array;
  total_execs : int;
  total_notifies : int;
  total_parks : int;
}

exception Deadlock of string list
exception Stream_failure of string * exn

(* One submitted run.  [wake_seq] is only ever incremented while
   holding the team lock; [parked] / [running] / [failed] /
   [deadlocked] are written under the lock too (racy reads of the
   abort flags outside the lock are harmless — a worker at worst scans
   once more before noticing). *)
type job = {
  assigned : stream array array;
  wake_seq : int Atomic.t;
  mutable parked : int;
  mutable running : int;
  mutable failed : (string * exn) option;
  mutable deadlocked : string list option;
  stats : domain_stats array;
}

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;  (* workers waiting for the next job *)
  wake : Condition.t;  (* workers parked inside a job *)
  donec : Condition.t; (* the submitter waiting for completion *)
  mutable seq : int;
  mutable job : job option;
  mutable active : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let spin_rounds = 200

(* A parked worker that has already been signalled stays in the
   [parked] count until it re-acquires the lock, so "everyone is
   parked" alone is not proof of deadlock: the signalled worker may be
   racing for the mutex with its wait already satisfied.  Declaring
   deadlock therefore additionally requires that no blocked stream's
   head wait is satisfiable — checked under the lock, where every
   counted-parked worker's stream cursors are stable (they published
   them through this same mutex before waiting). *)
let has_satisfied_blocked_wait (job : job) =
  Array.exists
    (fun streams ->
      Array.exists
        (fun s ->
          s.pc < Array.length s.ops
          &&
          match s.ops.(s.pc) with
          | Wait { counter; threshold } -> Atomic.get counter.cell >= threshold
          | Exec _ | Notify _ -> false)
        streams)
    job.assigned

let blocked_report (job : job) =
  (* Called under the team lock with every owning worker parked, so
     the stream cursors are quiescent. *)
  let lines = ref [] in
  Array.iter
    (fun streams ->
      Array.iter
        (fun s ->
          if s.pc < Array.length s.ops then
            match s.ops.(s.pc) with
            | Wait { counter; threshold } ->
              lines :=
                Printf.sprintf "%s blocked at %s >= %d (counter = %d)"
                  s.s_label counter.key threshold
                  (Atomic.get counter.cell)
                :: !lines
            | Exec _ | Notify _ -> ())
        streams)
    job.assigned;
  List.rev !lines

let run_worker t (job : job) w =
  let streams = job.assigned.(w) in
  let total = Array.length streams in
  let execs = ref 0
  and notifies = ref 0
  and parks = ref 0
  and spins = ref 0
  and busy = ref 0.0
  and finished = ref 0 in
  let aborted () = job.failed <> None || job.deadlocked <> None in
  let record_failure label exn =
    Mutex.lock t.lock;
    if job.failed = None then job.failed <- Some (label, exn);
    Atomic.incr job.wake_seq;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  in
  (* Advance one stream until it finishes or blocks on a wait; returns
     true if at least one op executed. *)
  let advance s =
    let moved = ref false in
    let blocked = ref false in
    while (not !blocked) && s.pc < Array.length s.ops do
      (match s.ops.(s.pc) with
      | Exec { label; run } ->
        let t0 = Unix.gettimeofday () in
        (try run ()
         with exn ->
           record_failure (Printf.sprintf "%s in %s" label s.s_label) exn);
        busy := !busy +. (Unix.gettimeofday () -. t0);
        incr execs
      | Notify { counter; amount } ->
        (* Release: the fetch-and-add publishes every plain write this
           stream made before it. *)
        ignore (Atomic.fetch_and_add counter.cell amount);
        incr notifies;
        Mutex.lock t.lock;
        Atomic.incr job.wake_seq;
        if job.parked > 0 then Condition.broadcast t.wake;
        Mutex.unlock t.lock
      | Wait { counter; threshold } ->
        (* Acquire: observing the threshold synchronizes with the
           notifier's release. *)
        if Atomic.get counter.cell >= threshold then ()
        else blocked := true);
      if not !blocked then begin
        s.pc <- s.pc + 1;
        moved := true;
        if aborted () then blocked := true
      end
    done;
    !moved
  in
  let rec loop () =
    if (not (aborted ())) && !finished < total then begin
      let w0 = Atomic.get job.wake_seq in
      let progress = ref false in
      Array.iter
        (fun s ->
          if s.pc < Array.length s.ops then begin
            if advance s then progress := true;
            if s.pc >= Array.length s.ops then incr finished
          end)
        streams;
      if !finished = total || aborted () then ()
      else if !progress then loop ()
      else begin
        (* Spin: a notify may be a few instructions away on another
           core; parking for it would cost two context switches. *)
        let spun = ref 0 in
        while Atomic.get job.wake_seq = w0 && !spun < spin_rounds do
          Domain.cpu_relax ();
          incr spun
        done;
        spins := !spins + !spun;
        if Atomic.get job.wake_seq <> w0 then loop ()
        else begin
          Mutex.lock t.lock;
          if Atomic.get job.wake_seq <> w0 then begin
            Mutex.unlock t.lock;
            loop ()
          end
          else begin
            job.parked <- job.parked + 1;
            incr parks;
            if
              job.parked = job.running
              && job.deadlocked = None
              && not (has_satisfied_blocked_wait job)
            then begin
              (* Everyone who could still notify is parked and no
                 blocked wait can fire: structural deadlock.
                 Unreachable for analyzer-clean programs. *)
              job.deadlocked <- Some (blocked_report job);
              Atomic.incr job.wake_seq;
              Condition.broadcast t.wake
            end;
            while
              Atomic.get job.wake_seq = w0
              && job.failed = None
              && job.deadlocked = None
            do
              Condition.wait t.wake t.lock
            done;
            job.parked <- job.parked - 1;
            Mutex.unlock t.lock;
            loop ()
          end
        end
      end
    end
  in
  loop ();
  Mutex.lock t.lock;
  job.running <- job.running - 1;
  (* A worker retiring its last stream can strand the others: if every
     remaining owner is already parked, nobody is left to notify. *)
  if
    job.running > 0 && job.parked = job.running
    && job.failed = None
    && job.deadlocked = None
    && not (has_satisfied_blocked_wait job)
  then begin
    job.deadlocked <- Some (blocked_report job);
    Atomic.incr job.wake_seq;
    Condition.broadcast t.wake
  end;
  job.stats.(w) <-
    {
      d_streams = total;
      d_execs = !execs;
      d_notifies = !notifies;
      d_busy_s = !busy;
      d_parks = !parks;
      d_spins = !spins;
    };
  Mutex.unlock t.lock

let rec worker_loop t w ~last =
  Mutex.lock t.lock;
  while t.seq = last && not t.stop do
    Condition.wait t.work t.lock
  done;
  if t.stop then Mutex.unlock t.lock
  else begin
    let seq = t.seq in
    let job = Option.get t.job in
    Mutex.unlock t.lock;
    run_worker t job w;
    Mutex.lock t.lock;
    t.active <- t.active - 1;
    if t.active = 0 then Condition.broadcast t.donec;
    Mutex.unlock t.lock;
    worker_loop t w ~last:seq
  end

let create size =
  if size < 1 || size > 128 then
    invalid_arg "Backend.create: team size must be in [1, 128]";
  let t =
    {
      size;
      lock = Mutex.create ();
      work = Condition.create ();
      wake = Condition.create ();
      donec = Condition.create ();
      seq = 0;
      job = None;
      active = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init size (fun w -> Domain.spawn (fun () -> worker_loop t w ~last:0));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

let run t streams =
  let n = t.size in
  let buckets = Array.make n [] in
  List.iter
    (fun s ->
      let d = ((s.s_home mod n) + n) mod n in
      buckets.(d) <- s :: buckets.(d))
    streams;
  let job =
    {
      assigned = Array.map (fun l -> Array.of_list (List.rev l)) buckets;
      wake_seq = Atomic.make 0;
      parked = 0;
      running = n;
      failed = None;
      deadlocked = None;
      stats = Array.make n zero_stats;
    }
  in
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    invalid_arg "Backend.run: team has been shut down"
  end;
  (* Serialize concurrent submitters: one job in flight at a time. *)
  while t.job <> None do
    Condition.wait t.donec t.lock
  done;
  t.job <- Some job;
  t.seq <- t.seq + 1;
  t.active <- n;
  Condition.broadcast t.work;
  while t.active > 0 do
    Condition.wait t.donec t.lock
  done;
  t.job <- None;
  Condition.broadcast t.donec;
  Mutex.unlock t.lock;
  let wall = Unix.gettimeofday () -. t0 in
  match (job.failed, job.deadlocked) with
  | Some (where, exn), _ -> raise (Stream_failure (where, exn))
  | None, Some blocked -> raise (Deadlock blocked)
  | None, None ->
    let sum f = Array.fold_left (fun acc d -> acc + f d) 0 job.stats in
    {
      wall_s = wall;
      per_domain = job.stats;
      total_execs = sum (fun d -> d.d_execs);
      total_notifies = sum (fun d -> d.d_notifies);
      total_parks = sum (fun d -> d.d_parks);
    }

(* ------------------------------------------------------------------ *)
(* Shared teams                                                        *)
(* ------------------------------------------------------------------ *)

(* Spawning a domain costs ~10µs plus the runtime's per-domain state,
   so callers that run many programs (the QCheck sweep, the bench
   loop) reuse one team per size.  Teams are torn down at process
   exit; a job can never be in flight then because [run] is
   synchronous from the main domain. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let shared size =
  Mutex.lock registry_lock;
  let t =
    match Hashtbl.find_opt registry size with
    | Some t -> t
    | None ->
      let t = create size in
      Hashtbl.add registry size t;
      t
  in
  Mutex.unlock registry_lock;
  t

let () =
  at_exit (fun () ->
      Mutex.lock registry_lock;
      let teams = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
      Hashtbl.reset registry;
      Mutex.unlock registry_lock;
      List.iter shutdown teams)
