(* Program interpreter: executes a lowered program on a simulated
   cluster.

   One interpreter serves both backends of the reproduction:
   - timing: every instruction charges its cost model duration, SM and
     DMA workers contend for their pools, copies queue on links — the
     makespan is the kernel time reported in benchmarks;
   - data (optional): [Copy] and [Compute] instructions additionally
     mutate the per-rank tensor memories, so the same schedule is
     checked for numerical correctness against references.

   Crash-fault tolerance rides on three mechanisms layered over the
   plain interpreter:
   - a tile-completion *ledger*: one entry per task, marked done on
     completion and checkpointing how many of its notifies were issued,
     so after a crash the recovery coordinator knows exactly which
     tiles are lost versus already delivered;
   - liveness-aware execution: every instruction boundary (and every
     return from a blocking operation) re-checks that the executing
     rank is still alive and abandons the task otherwise — paired with
     {!Channel.cancel_rank_waits} this guarantees a dead rank's workers
     drain instead of parking forever;
   - a failover coordinator hooked into the watchdog tick: on a crash
     it validates the remapped protocol, marks the dead shard
     recovered, and replays only the lost tiles round-robin on the
     survivors. *)

open Tilelink_sim
open Tilelink_machine

type result = {
  makespan : float;
  channels : Channel.t;
  memory : Memory.t;
  notifies : int;
}

let resolve_rank = Dataop.resolve_rank

module Obs = Tilelink_obs

(* Replayed tasks run under "<label>+replay"; their spans are recorded
   as [Replay] so attribution charges them to recovery, not compute.
   A replay executed on a survivor *outside* the dead rank's NVLink
   island runs under "<label>+replay@x" — same Replay kind, but the
   "@x" marker flows into the span labels so the causal profiler can
   surface cross-island replay as its own recovery sub-bucket. *)
type replay = Not_replay | Replay | Cross_island_replay

let replay_suffix = function
  | Not_replay -> ""
  | Replay -> "+replay"
  | Cross_island_replay -> "+replay@x"

(* ------------------------------------------------------------------ *)
(* Tile-completion ledger                                              *)
(* ------------------------------------------------------------------ *)

(* One entry per task, naming it by position: rank, role index in the
   rank's plan and task index in the role (names and labels need not
   be unique).  [le_notified] is the producer-side checkpoint: how many
   of the task's Notify instructions were actually issued — on replay
   those epochs are skipped so counters never overshoot.
   [le_poisoned] marks a task whose execution was cut short (its rank
   died mid-task, or one of its copies touched a dead shard). *)
type ledger_entry = {
  le_rank : int;
  le_role : int;
  le_index : int;
  le_task : Program.task;
  mutable le_notified : int;
  mutable le_done : bool;
  mutable le_poisoned : bool;
  mutable le_replaying : bool;
      (* claimed by an in-flight replay process: the coordinator's sweep
         must not spawn a second replay of the same tile *)
}

(* Raised inside instruction execution when the executing rank is found
   dead (or a copy endpoint is unreachable); caught by the cursor's
   step, which poisons the ledger entry and either moves on (survivor
   rank, one lost copy) or drains (the worker's own rank crashed). *)
exception Abandoned

(* ------------------------------------------------------------------ *)
(* Cursor interpreter                                                  *)
(* ------------------------------------------------------------------ *)

(* Every execution stream — an SM or DMA pool worker, a host stream, a
   failover replay group — runs as a cursor: a mutable record holding a
   program counter into the current task's instruction list and a
   per-instruction phase.  The counter is the list's remaining tail, so
   a task runs from the program's own list with no copy.  The engine
   re-enters a cursor through its [step] closure (one per cursor) and a
   waiter list resumes it through its [wake] closure, so an event
   allocates no continuation and no thunk.  A phase boundary is one
   [Cursor.wait] (one event) or one [Cursor.park] (a blocked process
   until the wake, which books one event at the current instant). *)

(* What every cursor of one run shares. *)
type env = {
  cluster : Cluster.t;
  spec : Spec.t;
  engine : Engine.t;
  trace : Trace.t;
  channels : Channel.t;
  memory : Memory.t;
  telemetry : Obs.Telemetry.t option;
  data : bool;
  crashed : bool array;
      (* the run's per-rank crash flags: a task is only as alive as its
         executing rank *)
}

(* Times of the instruction in flight: its span start, the issue and
   ready instants of a load stall, and when a channel wait began.  An
   all-float record keeps its fields unboxed, so setting one allocates
   nothing. *)
type marks = {
  mutable t0 : float;
  mutable issue : float;
  mutable ready : float;
  mutable since : float;
}

type cursor = {
  env : env;
  sim : Cursor.t;
  lane : Trace.lane;
  pool : Resource.t option;  (* one unit held per task body *)
  comm_active : int ref;
      (* communication roles live on the rank; compute pays the fusion
         interference while it is > 0 *)
  mutable worker : int;
      (* causal span worker id: spans chain in this stream's program
         order and its notifies carry its last span as predecessor;
         -1 (telemetry off) skips chaining *)
  (* The task.  [rank] owns it (data semantics); [exec_rank] runs it
     (timing, liveness, trace attribution) and differs on replay. *)
  mutable rank : int;
  mutable exec_rank : int;
  mutable replay : replay;  (* span kind and label marker *)
  mutable entry : ledger_entry option;
  mutable label : string;
  mutable rest : Instr.t list;
      (* the program counter: the instruction in flight and those after
         it, in the task's own list *)
  mutable lead : int;
      (* instructions left before the pool unit is taken *)
  mutable holding : bool;
  mutable skip : int;  (* checkpointed notifies a replay skips *)
  mutable phase : int;
  mutable wait_id : int;
  (* Loads in flight: [load_access.(i)] completes at [load_ready.(i)]
     for [i < nloads].  The arrays grow by doubling, so a Load
     allocates nothing. *)
  mutable load_access : Instr.access array;
  mutable load_ready : float array;
  mutable nloads : int;
  marks : marks;
  (* The stream's source of tasks: load the next one (false when there
     is none), account a completed or an abandoned one (whether to
     carry on), and run the stream's exit. *)
  next : cursor -> bool;
  finished : cursor -> unit;
  abandoned : cursor -> bool;
  on_exit : unit -> unit;
}

let check_live c = if c.env.crashed.(c.exec_rank) then raise Abandoned

let span_kind c plain =
  match c.replay with
  | Not_replay -> plain
  | Replay | Cross_island_replay -> Obs.Span.Replay

let span_label c label =
  match c.replay with
  | Cross_island_replay -> label ^ "@x"
  | Not_replay | Replay -> label

(* A task's leading waits/loads execute before the worker occupies an
   execution unit: a CTA is only scheduled once its dependencies are
   satisfied (stream-ordered concurrent kernels), so a blocked consumer
   does not hold an SM hostage while its producer needs one.  The unit
   is taken after them even when nothing follows. *)
let rec leading_waits n = function
  | (Instr.Wait _ | Instr.Sleep _ | Instr.Load _) :: rest ->
    leading_waits (n + 1) rest
  | _ -> n

let load_task c ~instrs ~lead ~entry ~label =
  c.rest <- instrs;
  c.lead <- lead;
  c.entry <- entry;
  c.label <- label;
  c.phase <- 0

let now c = Cluster.now c.env.cluster

(* A Load issued now: drop the loads that completed by now, then add
   [access], ready [latency] from now. *)
let add_load c access ~latency =
  let t = now c in
  let kept = ref 0 in
  for i = 0 to c.nloads - 1 do
    if c.load_ready.(i) > t then begin
      c.load_access.(!kept) <- c.load_access.(i);
      c.load_ready.(!kept) <- c.load_ready.(i);
      incr kept
    end
  done;
  let n = !kept in
  if n = Array.length c.load_ready then begin
    let grow a fill =
      let b = Array.make (max 4 (2 * n)) fill in
      Array.blit a 0 b 0 n;
      b
    in
    c.load_access <- grow c.load_access access;
    c.load_ready <- grow c.load_ready 0.0
  end;
  c.load_access.(n) <- access;
  c.load_ready.(n) <- t +. latency;
  c.nloads <- n + 1

let rec reads_overlap access = function
  | [] -> false
  | read :: rest ->
    Instr.accesses_overlap access read || reads_overlap access rest

(* Mark a compute issued now, ready once every in-flight load that
   [reads] overlap has completed.  Only a load still in flight can put
   [ready] past [issue], so completed loads skip the overlap test. *)
let mark_issue c reads =
  let m = c.marks in
  m.issue <- now c;
  m.ready <- m.issue;
  for i = 0 to c.nloads - 1 do
    let ready = c.load_ready.(i) in
    if ready > m.ready && reads_overlap c.load_access.(i) reads then
      m.ready <- ready
  done

let release_unit c =
  if c.holding then begin
    c.holding <- false;
    Option.iter (fun pool -> Resource.release pool 1) c.pool
  end

let exit_stream c =
  c.on_exit ();
  Cursor.finish c.sim

(* Run the cursor until it books an event or parks.  Every path that
   carries on is a tail call. *)
let rec advance c =
  match c.pool with
  | Some pool when c.lead = 0 && not c.holding ->
    (* Held from here on: a queued request is granted before the
       wake. *)
    c.holding <- true;
    if Resource.try_acquire pool 1 then advance c
    else begin
      Cursor.park c.sim;
      Resource.enqueue pool 1 (Cursor.waker c.sim)
    end
  | _ -> (
    match c.rest with
    | instr :: _ -> exec c instr
    | [] ->
      release_unit c;
      c.finished c;
      if c.next c then advance c else exit_stream c)

and next_instr c =
  (match c.rest with _ :: rest -> c.rest <- rest | [] -> ());
  if c.lead > 0 then c.lead <- c.lead - 1;
  c.phase <- 0;
  advance c

(* Each instruction checks liveness first: a dead rank's stream
   abandons its task at the next instruction boundary and after every
   blocking phase. *)
and exec c instr =
  match instr with
  | Instr.Load { access } ->
    (* Loads issue asynchronously (cp.async / TMA): they complete
       [load_latency] after issue.  A consumer stalls only if it reads
       the data before then — which multi-stage pipelining avoids by
       hoisting the load ahead of the previous tile's compute. *)
    check_live c;
    let latency = c.env.spec.Spec.gpu.load_latency in
    if latency > 0.0 then add_load c access ~latency;
    next_instr c
  | Instr.Store _ ->
    check_live c;
    next_instr c
  | Instr.Sleep d ->
    check_live c;
    if c.phase = 0 then begin
      c.phase <- 1;
      Cursor.wait c.sim d
    end
    else next_instr c
  | Instr.Compute { label; cost; reads; action; _ } ->
    compute c ~label ~cost ~reads ~action
  | Instr.Copy { label; src; dst; bytes; action } ->
    copy c ~label ~src ~dst ~bytes ~action
  | Instr.Wait { target; threshold; _ } -> wait c ~target ~threshold
  | Instr.Notify { target; amount; _ } ->
    if c.skip > 0 then begin
      (* Checkpointed epoch: already delivered before the crash;
         re-issuing would overshoot the counter past epochs other
         waits rely on. *)
      c.skip <- c.skip - 1;
      next_instr c
    end
    else notify c ~target ~amount

(* Phases: 0 issue (stall on overlapping in-flight loads), 1 run the
   tile, 2 record it. *)
and compute c ~label ~cost ~reads ~action =
  let env = c.env and m = c.marks in
  match c.phase with
  | 0 ->
    check_live c;
    mark_issue c reads;
    c.phase <- 1;
    if m.ready > m.issue then Cursor.wait c.sim (m.ready -. m.issue)
    else compute c ~label ~cost ~reads ~action
  | 1 ->
    (* Fusion interference applies only while a communication role is
       actually running on this rank: L2 pollution, scheduler and HBM
       contention vanish once the comm side drains.  The straggler
       multiplier is sampled at issue: a chaos disturbance can slow
       this rank's kernels; 1.0 when none is installed. *)
    let interference =
      if !(c.comm_active) > 0 then env.spec.Spec.overheads.fusion_interference
      else 1.0
    in
    let duration =
      Instr.cost_duration env.spec ~sms:1 cost
      *. interference
      *. Cluster.compute_scale env.cluster ~rank_id:c.exec_rank
    in
    m.t0 <- now c;
    c.phase <- 2;
    if duration > 0.0 then Cursor.wait c.sim duration
    else compute c ~label ~cost ~reads ~action
  | _ ->
    (* A kernel that was mid-tile when its rank died produced nothing:
       no trace span, no data mutation — the ledger marks the tile
       lost and the coordinator replays it. *)
    check_live c;
    let t1 = now c in
    Trace.add env.trace ~rank:c.exec_rank ~lane:c.lane ~label ~t0:m.t0 ~t1;
    if Obs.Telemetry.active env.telemetry then begin
      let tele = Option.get env.telemetry in
      let metrics = Obs.Telemetry.metrics tele in
      Obs.Metrics.inc metrics "tiles.compute";
      Obs.Metrics.observe metrics "compute_us" (t1 -. m.t0);
      if m.ready > m.issue then
        Obs.Metrics.observe metrics "load_stall_us" (m.ready -. m.issue);
      Obs.Span.record_task
        (Obs.Telemetry.spans tele)
        ~kind:(span_kind c Obs.Span.Compute)
        ~label:(span_label c label)
        ~rank:c.exec_rank ~worker:c.worker ~t0:m.t0 ~t1
    end;
    (match action with
    | Some act when env.data -> act env.memory ~rank:c.rank
    | _ -> ());
    next_instr c

(* Phases: 0 admit (a copy-engine stall), 1 start the move, 2 hold a
   link stream for the wire time, 3 wait the link latency, 4 record
   it. *)
and copy c ~label ~src ~dst ~bytes ~action =
  let env = c.env in
  let src_rank = resolve_rank ~self:c.rank src.Instr.mem_rank in
  let dst_rank = resolve_rank ~self:c.rank dst.Instr.mem_rank in
  (* Replays transfer against recovered memory. *)
  let force = match c.replay with Not_replay -> false | _ -> true in
  match c.phase with
  | 0 ->
    check_live c;
    (* Fail fast on a dead endpoint: the copy moves nothing, charges
       nothing, and poisons the task so the coordinator replays it
       against recovered memory. *)
    if
      (not force) && src_rank <> dst_rank
      && not (Cluster.transfer_ok env.cluster ~src:src_rank ~dst:dst_rank)
    then raise Abandoned;
    c.marks.t0 <- now c;
    (* Copy-engine stall injection: charged before the copy admits, so
       it shows up inside the traced copy span. *)
    let stall = Cluster.copy_stall_us env.cluster ~rank_id:c.exec_rank in
    c.phase <- 1;
    if stall > 0.0 then Cursor.wait c.sim stall
    else copy c ~label ~src ~dst ~bytes ~action
  | 1 ->
    check_live c;
    if src_rank = dst_rank then begin
      (* Local move: a round trip through HBM at full bandwidth share —
         bulk copies saturate HBM regardless of the issuing unit. *)
      let duration =
        Cost.memory_pass_time env.spec ~sms:env.spec.Spec.gpu.num_sms
          ~bytes:(2.0 *. bytes)
      in
      c.phase <- 4;
      if duration > 0.0 then Cursor.wait c.sim duration
      else copy c ~label ~src ~dst ~bytes ~action
    end
    else if
      (not force)
      && not (Cluster.transfer_ok env.cluster ~src:src_rank ~dst:dst_rank)
    then begin
      (* The endpoint died during the stall: the transfer moves
         nothing, as {!Cluster.transfer_ok} says. *)
      c.phase <- 4;
      copy c ~label ~src ~dst ~bytes ~action
    end
    else begin
      let link = Cluster.link env.cluster ~src:src_rank ~dst:dst_rank in
      c.phase <- 2;
      if Bandwidth.try_admit link then copy c ~label ~src ~dst ~bytes ~action
      else begin
        Cursor.park c.sim;
        Bandwidth.admit_later link (Cursor.waker c.sim)
      end
    end
  | 2 ->
    let link = Cluster.link env.cluster ~src:src_rank ~dst:dst_rank in
    c.phase <- 3;
    Cursor.wait c.sim (Bandwidth.wire_time link ~bytes)
  | 3 ->
    let link = Cluster.link env.cluster ~src:src_rank ~dst:dst_rank in
    Bandwidth.wire_done link ~bytes;
    c.phase <- 4;
    Cursor.wait c.sim (Bandwidth.latency link)
  | _ ->
    check_live c;
    let t0 = c.marks.t0 and t1 = now c in
    Trace.add env.trace ~rank:c.exec_rank ~lane:c.lane ~label ~t0 ~t1;
    if Obs.Telemetry.active env.telemetry then begin
      let tele = Option.get env.telemetry in
      let metrics = Obs.Telemetry.metrics tele in
      Obs.Metrics.inc metrics "tiles.copy";
      Obs.Metrics.add_gauge metrics "bytes.copied" bytes;
      Obs.Metrics.observe metrics "copy_us" (t1 -. t0);
      let journal = Obs.Telemetry.journal tele in
      if src_rank <> dst_rank && Obs.Journal.enabled journal then
        (* A copy whose destination is the executing rank fetched a
           remote tile (pull); one that lands remotely pushed ours. *)
        Obs.Journal.record journal ~t:t1
          (if dst_rank = c.rank then
             Obs.Journal.Tile_pull
               { label; src = src_rank; dst = dst_rank; bytes }
           else
             Obs.Journal.Tile_push
               { label; src = src_rank; dst = dst_rank; bytes });
      Obs.Span.record_task
        (Obs.Telemetry.spans tele)
        ~kind:(span_kind c Obs.Span.Copy)
        ~label:(span_label c label)
        ~rank:c.exec_rank ~worker:c.worker ~t0 ~t1
    end;
    if env.data then begin
      match action with
      | Some act -> act env.memory ~rank:c.rank
      | None -> Dataop.copy_action src dst env.memory ~rank:c.rank
    end;
    next_instr c

(* Phases: 0 the acquire fence, 1 the wait proper (parks unless
   satisfied), 2 record it. *)
and wait c ~target ~threshold =
  let env = c.env in
  match c.phase with
  | 0 ->
    check_live c;
    c.marks.t0 <- now c;
    c.phase <- 1;
    let fence = env.spec.Spec.overheads.signal_wait in
    if fence > 0.0 then Cursor.wait c.sim fence else wait c ~target ~threshold
  | 1 ->
    c.marks.since <- now c;
    let id = Channel.wait_begin env.channels target ~threshold in
    c.wait_id <- id;
    c.phase <- 2;
    if id >= 0 then begin
      Cursor.park c.sim;
      Channel.wait_park env.channels ~waiter:c.exec_rank target ~threshold
        (Cursor.waker c.sim)
    end
    else wait c ~target ~threshold
  | _ ->
    Channel.wait_end env.channels ~waiter:c.exec_rank ~worker:c.worker target
      ~threshold ~id:c.wait_id ~since:c.marks.since;
    (* A force-woken wait (the rank died while parked) returns with its
       threshold unsatisfied — abandon before touching anything. *)
    check_live c;
    let t0 = c.marks.t0 and t1 = now c in
    if t1 > t0 then
      Trace.add env.trace ~rank:c.exec_rank ~lane:Trace.Wait ~label:c.label
        ~t0 ~t1;
    next_instr c

(* Phases: 0 the release fence (atomic + memory fence before the signal
   is visible), 1 signal. *)
and notify c ~target ~amount =
  match c.phase with
  | 0 ->
    check_live c;
    c.phase <- 1;
    let fence = c.env.spec.Spec.overheads.signal_notify in
    if fence > 0.0 then Cursor.wait c.sim fence else notify c ~target ~amount
  | _ ->
    (* Dying inside the fence means the signal never became visible. *)
    check_live c;
    Channel.notify c.env.channels ~worker:c.worker target ~amount;
    (* Producer-side checkpoint: this epoch is now delivered (or at
       least issued); replay will skip it. *)
    (match c.entry with
    | Some e -> e.le_notified <- e.le_notified + 1
    | None -> ());
    next_instr c

(* One event of the cursor.  A task abandoned mid-flight gives back its
   pool unit, and its source decides whether the stream carries on with
   the next task in the same event. *)
let rec step c =
  match advance c with
  | () -> ()
  | exception Abandoned ->
    release_unit c;
    if c.abandoned c && c.next c then step c else exit_stream c

(* A causal worker id for a new stream; -1 with telemetry off. *)
let fresh_worker env =
  if Obs.Telemetry.active env.telemetry then
    Obs.Span.fresh_worker (Obs.Telemetry.spans (Option.get env.telemetry))
  else -1

(* A stream's first event: take a causal worker id, then the first
   task. *)
let begin_stream c =
  c.worker <- fresh_worker c.env;
  if c.next c then step c else exit_stream c

let make_cursor env ~lane ~pool ~comm_active ~rank ~next ~finished ~abandoned
    ~on_exit =
  let c =
    {
      env;
      sim = Cursor.create env.engine;
      lane;
      pool;
      comm_active;
      worker = -1;
      rank;
      exec_rank = rank;
      replay = Not_replay;
      entry = None;
      label = "";
      rest = [];
      lead = 0;
      holding = false;
      skip = 0;
      phase = 0;
      wait_id = -1;
      load_access = [||];
      load_ready = [||];
      nloads = 0;
      marks = { t0 = 0.0; issue = 0.0; ready = 0.0; since = 0.0 };
      next;
      finished;
      abandoned;
      on_exit;
    }
  in
  Cursor.set_step c.sim (fun () -> step c);
  c

(* A worker repeatedly takes the next task from the role's shared
   queue, acquiring one unit of [pool] per task body; wave scheduling
   (ceil(tiles / workers) waves) and dynamic sharing of idle units
   across roles both emerge.  A task abandoned mid-flight poisons its
   ledger entry, and the worker drains if its own rank is the
   casualty; a survivor that lost one copy to a dead shard keeps
   going. *)
let queue_cursor env ~rank ~lane ~pool ~comm_active ~on_exit queue =
  make_cursor env ~lane ~pool ~comm_active ~rank ~on_exit
    ~next:(fun c ->
      match !queue with
      | [] -> false
      | ((task : Program.task), entry) :: rest ->
        queue := rest;
        let instrs = task.Program.instrs in
        load_task c ~instrs
          ~lead:(leading_waits 0 instrs)
          ~entry ~label:task.Program.label;
        true)
    ~finished:(fun c ->
      Option.iter (fun e -> e.le_done <- true) c.entry;
      c.entry <- None)
    ~abandoned:(fun c ->
      Option.iter (fun e -> e.le_poisoned <- true) c.entry;
      c.entry <- None;
      not env.crashed.(rank))

(* A role is one cursor: it starts, pays the kernel launch latency,
   then either runs its host stream inline or starts one worker per
   pool worker and parks until the last one exits, resuming one
   instant-0 event later.  The workers' first events run in start
   order at one instant, and each takes a task unless the queue is
   empty, so a worker past the role's task count never takes one: it
   gets no cursor, only the event that [begin_stream] spends on an
   empty queue (a causal worker id, then the exit). *)
let launch_role env ~rank ~comm_active ~queue (role : Program.role) =
  let sim = Cursor.create env.engine in
  let lane = role.Program.lane in
  let comm_role = Report.is_comm_lane lane in
  let role_done () = if comm_role then decr comm_active in
  let launched () =
    if comm_role then incr comm_active;
    let run_workers count pool =
      let finish () =
        role_done ();
        Cursor.finish sim
      in
      let remaining = ref count in
      let worker_exit () =
        decr remaining;
        if !remaining = 0 then Cursor.waker sim ()
      in
      let busy = min count (List.length !queue) in
      for _ = 1 to busy do
        let c =
          queue_cursor env ~rank ~lane ~pool:(Some pool) ~comm_active
            ~on_exit:worker_exit queue
        in
        Cursor.start c.sim (fun () -> begin_stream c)
      done;
      let idle () =
        ignore (fresh_worker env);
        worker_exit ();
        Engine.process_finished env.engine
      in
      for _ = busy + 1 to count do
        Engine.process_started env.engine;
        Engine.schedule env.engine ~delay:0.0 idle
      done;
      if count > 0 then begin
        Cursor.set_step sim finish;
        Cursor.park sim
      end
      else finish ()
    in
    let cluster_rank = Cluster.rank env.cluster rank in
    match role.Program.resource with
    | Program.Sm_partition count -> run_workers count cluster_rank.Cluster.sms
    | Program.Dma_engines count -> run_workers count cluster_rank.Cluster.dma
    | Program.Host_stream ->
      begin_stream
        (queue_cursor env ~rank ~lane ~pool:None ~comm_active
           ~on_exit:role_done queue)
  in
  Cursor.set_step sim launched;
  (* Kernel launch latency before the role's work becomes visible. *)
  Cursor.start sim (fun () ->
      Cursor.wait sim env.spec.Spec.overheads.kernel_launch)

(* Append the pending-waiter edge list and the tail of the journal to a
   deadlock message, so even un-hardened callers get an actionable
   diagnostic instead of a bare process count. *)
let enrich_deadlock channels ~telemetry msg =
  let take n xs =
    let rec go n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: go (n - 1) rest
    in
    go n xs
  in
  let pending = Channel.pending_waits channels in
  let waiter_lines =
    List.map
      (fun (pw : Channel.pending_wait) ->
        Printf.sprintf "  rank %d waits %s >= %d (since t=%.1f)"
          pw.Channel.pw_rank pw.Channel.pw_key pw.Channel.pw_threshold
          pw.Channel.pw_since)
      (take 16 pending)
  in
  let journal_lines =
    if Obs.Telemetry.active telemetry then
      let entries =
        Obs.Journal.entries (Obs.Telemetry.journal (Option.get telemetry))
      in
      let tail = take 8 (List.rev entries) in
      List.rev_map (fun e -> "  " ^ Obs.Journal.entry_summary e) tail
    else []
  in
  String.concat "\n"
    ((msg
     :: Printf.sprintf "pending waiters (%d):" (List.length pending)
     :: waiter_lines)
    @
    if journal_lines = [] then []
    else "recent journal events:" :: journal_lines)

(* ------------------------------------------------------------------ *)
(* Failover coordinator                                                *)
(* ------------------------------------------------------------------ *)

(* Lost entries of a crash: the dead rank's unfinished tasks plus any
   survivor task poisoned by a copy into the dead shard.  Tasks still
   in flight on live ranks are neither — they complete normally. *)
let lost_entries ledger ~dead =
  List.filter
    (fun e ->
      (not e.le_done) && (e.le_rank = dead || e.le_poisoned))
    ledger

(* The key a no-survivor stall names: the first channel whose producer
   died with undelivered epochs — the unrecoverable channel. *)
let no_survivor_key ~dead ~lost =
  List.find_map
    (fun e ->
      List.find_map
        (function
          | Instr.Notify { target; _ } -> Some (Instr.key_of_target target)
          | _ -> None)
        e.le_task.Program.instrs)
    lost
  |> Option.value ~default:(Printf.sprintf "pc[%d][0]" dead)

(* Consecutive entries sharing (rank, role), in order: the replay
   groups of a ledger-ordered entry list, one replay cursor each, which
   keeps intra-role task order. *)
let runs entries =
  let same a b = a.le_rank = b.le_rank && a.le_role = b.le_role in
  List.fold_left
    (fun acc e ->
      match acc with
      | (run :: _ as run') :: rest when same run e -> (e :: run') :: rest
      | _ -> [ e ] :: acc)
    [] entries
  |> List.rev_map List.rev

let run ?telemetry ?(data = false) ?memory ?chaos ?rebuild cluster
    (program : Program.t) =
  (match Program.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runtime.run: invalid program: " ^ msg));
  if Cluster.world_size cluster <> Program.world_size program then
    invalid_arg "Runtime.run: cluster/program world size mismatch";
  let memory =
    match memory with
    | Some m -> m
    | None -> Memory.create ~world_size:(Program.world_size program)
  in
  let interceptor =
    match chaos with
    | Some { Chaos.c_schedule = Some sched; _ } ->
      Chaos.apply_to_cluster sched cluster;
      Some (Chaos.interceptor sched)
    | _ -> None
  in
  let channels =
    Channel.create
      ~world_size:(Program.world_size program)
      ~channels_per_rank:program.Program.pc_channels
      ~peer_channels:program.Program.peer_channels ?telemetry
      ~clock:(fun () -> Cluster.now cluster)
      ?interceptor
      ~scheduler:(fun delay thunk ->
        Engine.schedule (Cluster.engine cluster) ~delay thunk)
      ()
  in
  let engine = Cluster.engine cluster in
  let start = Cluster.now cluster in
  let journal_ev ev =
    if Obs.Telemetry.active telemetry then
      Obs.Journal.record
        (Obs.Telemetry.journal (Option.get telemetry))
        ~t:(Cluster.now cluster) ev
  in
  let metrics_set name v =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.set_gauge
        (Obs.Telemetry.metrics (Option.get telemetry))
        name v
  in
  let metrics_observe name v =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.observe
        (Obs.Telemetry.metrics (Option.get telemetry))
        name v
  in
  let metric_inc name =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.inc (Obs.Telemetry.metrics (Option.get telemetry)) name
  in
  (* Crash faults, ledger and failover arming. *)
  let crashes =
    match chaos with
    | Some { Chaos.c_schedule = Some sched; _ } -> Chaos.crashes sched
    | _ -> []
  in
  let failover_armed =
    crashes <> []
    &&
    match chaos with
    | Some { Chaos.c_watchdog = Some wd; _ } ->
      wd.Chaos.policy = Chaos.Failover
    | _ -> false
  in
  (* What the watchdog and the coordinator did; a throwaway record on
     runs without chaos, which never touch it. *)
  let recovery =
    match chaos with
    | Some control -> control.Chaos.c_recovery
    | None -> Chaos.fresh_recovery ()
  in
  (* Ledger: one entry per task, built in deterministic rank-major
     order before anything runs, and each role's (task, entry) queue,
     by position.  Entries exist only when a crash is planned — plain
     runs keep the zero-bookkeeping path. *)
  let queues =
    Array.mapi
      (fun rank plan ->
        List.mapi
          (fun ri (role : Program.role) ->
            ( role,
              List.mapi
                (fun ti (task : Program.task) ->
                  if crashes = [] then (task, None)
                  else
                    ( task,
                      Some
                        {
                          le_rank = rank;
                          le_role = ri;
                          le_index = ti;
                          le_task = task;
                          le_notified = 0;
                          le_done = false;
                          le_poisoned = false;
                          le_replaying = false;
                        } ))
                role.Program.tasks ))
          plan)
      (Program.plans program)
  in
  let ledger =
    Array.to_list queues
    |> List.concat_map (List.concat_map (fun (_, q) -> List.filter_map snd q))
  in
  if crashes <> [] then recovery.Chaos.total_tiles <- List.length ledger;
  (* Liveness: once a rank has crashed its in-flight kernel state is
     gone for good, so its [crashed] flag stays set for the rest of the
     run and the coordinator replays the loss.  Every instruction
     boundary reads the flag, so it is a plain array, not a table. *)
  let crashed = Array.make (Program.world_size program) false in
  let env =
    {
      cluster;
      spec = Cluster.spec cluster;
      engine;
      trace = Cluster.trace cluster;
      channels;
      memory;
      telemetry;
      data;
      crashed;
    }
  in
  (* A stream has at most one pending event, so the queue is sized once,
     before the crashes are booked: one event per crash, role cursor and
     pool worker.  A pool role's own event is spent before its workers'
     are booked, which leaves room for the chaos watchdog; failover
     replays and delayed deliveries grow the queue as needed. *)
  Engine.reserve engine
    (Array.fold_left
       (List.fold_left (fun n ((role : Program.role), _) ->
            match role.Program.resource with
            | Program.Sm_partition count | Program.Dma_engines count ->
              n + 1 + count
            | Program.Host_stream -> n + 1))
       (List.length crashes) queues);
  (* Crashes pending failover handling, in kill order. *)
  let pending_crashes : (int * float) Queue.t = Queue.create () in
  List.iter
    (fun (crash_rank, { Chaos.cr_at }) ->
      Engine.schedule engine ~delay:cr_at (fun () ->
          if not crashed.(crash_rank) then begin
            crashed.(crash_rank) <- true;
            Cluster.kill_rank cluster ~rank_id:crash_rank;
            Queue.add (crash_rank, Cluster.now cluster) pending_crashes;
            journal_ev (Obs.Journal.Rank_crashed { rank = crash_rank });
            (* Force-wake the dead rank's parked workers so they drain
               instead of holding the engine live forever. *)
            ignore (Channel.cancel_rank_waits channels ~rank:crash_rank)
          end))
    crashes;
  Array.iteri
    (fun rank roles ->
      (* Tracks how many communication roles are live on this rank;
         compute tiles pay the interference factor while it is > 0. *)
      let comm_active = ref 0 in
      List.iter
        (fun (role, queue) ->
          launch_role env ~rank ~comm_active ~queue:(ref queue) role)
        roles)
    queues;
  (* The failover coordinator: runs at the top of every watchdog tick
     and must *return without blocking* — a second crash landing while
     the first crash's tiles are still replaying is only detected on a
     later tick, so parking the tick in a join would wedge recovery
     (and the whole run) for good.  Each tick makes three bounded,
     non-blocking passes:
     1. newly detected crashes: validate the remapped protocol and
        mark the dead shard recovered;
     2. replay sweep: spawn replay processes for lost tiles nobody is
        replaying yet, without joining them.  A replay whose executing
        survivor dies mid-task abandons, re-poisons its entry and
        releases the claim, so the next sweep re-replays it on a
        remaining survivor;
     3. settle: once a crash's lost tiles are all done, record the
        detect->resume latency and journal the resume. *)
  (* Crashes remapped but not yet settled, in crash order. *)
  let settling : (int * float) Queue.t = Queue.create () in
  let replayed_total = ref 0 in
  let settled_replayed = ref 0 in
  let survivors_now () =
    List.filter
      (fun r -> not crashed.(r))
      (List.init (Program.world_size program) Fun.id)
  in
  let island_of r = Cluster.island_of cluster ~rank_id:r in
  (* Topology-aware survivor ordering: intra-island survivors first
     (rank ascending), then cross-island (rank ascending), so the dead
     rank's channels and replays land on NVLink-local peers whenever
     any exist.  On a single-island cluster every survivor is
     intra-island and the order degenerates to plain ascending —
     byte-identical to the historical behaviour. *)
  let ordered_survivors ~relative_to =
    let home = island_of relative_to in
    let intra, cross =
      List.partition (fun r -> island_of r = home) (survivors_now ())
    in
    intra @ cross
  in
  let island_partitioned isl ~now =
    match chaos with
    | Some { Chaos.c_schedule = Some sched; _ } ->
      Chaos.partitioned sched ~node:isl ~now
    | _ -> false
  in
  let handle_crash (dead, t_crash) =
    let now = Cluster.now cluster in
    let lost = lost_entries ledger ~dead in
    let survivors = ordered_survivors ~relative_to:dead in
    if survivors = [] then begin
      let key = no_survivor_key ~dead ~lost in
      let kind, owner, channel = Chaos.parse_key key in
      let intended = Channel.intended_value channels ~key in
      Chaos.raise_stall ~telemetry ~recovery ~channels ~key ~kind ~owner
        ~channel ~rank:dead ~threshold:(intended + 1)
        ~value:(Option.value ~default:0 (Channel.key_value channels ~key))
        ~intended ~since:t_crash ~now
    end;
    (* Unbridgeable partition: survivors exist, but every one sits
       across a NIC cut from the dead rank's island — re-hosting the
       dead shard would have to cross the partitioned fabric.  Triage
       as a *structural* stall naming the cut, not a hang. *)
    let home = island_of dead in
    if
      (not (List.exists (fun r -> island_of r = home) survivors))
      && island_partitioned home ~now
    then
      Chaos.raise_stall ~telemetry ~recovery ~channels
        ~key:(Printf.sprintf "nic[%d]" home) ~kind:"partition" ~owner:dead
        ~channel:None ~rank:dead ~threshold:0 ~value:0 ~intended:0
        ~since:t_crash ~now;
    (* Re-validate the remapped protocol before touching anything:
       the rewritten program must still be statically complete.
       Replays run the original tasks against the original keys, so
       the remapped program is only checked, never run. *)
    Analyzer.check_exn (Fault.remap_program program ~dead ~survivors);
    (* The survivors re-host the dead shard: transfers touching it
       succeed again, reading recovered memory. *)
    Cluster.mark_recovered cluster ~rank_id:dead;
    journal_ev (Obs.Journal.Remapped { rank = dead; tiles = List.length lost });
    recovery.Chaos.remapped_tiles <-
      recovery.Chaos.remapped_tiles + List.length lost;
    metrics_set "recovery.remapped_tiles" (float_of_int (List.length lost));
    Queue.add (dead, t_crash) settling
  in
  let spawn_replays () =
    let pending =
      List.filter
        (fun e ->
          (not e.le_done)
          && (not e.le_replaying)
          && (crashed.(e.le_rank) || e.le_poisoned))
        ledger
    in
    match (pending, survivors_now ()) with
    | [], _ | _, [] -> ()
    | pending, _ ->
      (* Replay from a *fresh* build of the program when the caller
         provides one: task closures can hold accumulator state
         (flash-attention online softmax), so re-running a partially
         executed closure would double-count.  The rebuild's task at
         the entry's position replaces the original. *)
      let task_of =
        match rebuild with
        | None -> fun e -> e.le_task
        | Some f ->
          let fresh =
            Array.map
              (List.map (fun (r : Program.role) ->
                   Array.of_list r.Program.tasks))
              (Program.plans (f ()))
          in
          if
            Array.map (List.map Array.length) fresh
            <> Array.map (List.map (fun (_, q) -> List.length q)) queues
          then invalid_arg "Runtime.run: the rebuilt program changed shape";
          fun e -> (List.nth fresh.(e.le_rank) e.le_role).(e.le_index)
      in
      (* Claim every entry inside the tick, before any replay runs, so
         the next tick's sweep cannot spawn a duplicate replay. *)
      List.iter (fun e -> e.le_replaying <- true) pending;
      let next_exec = ref 0 in
      List.iter
        (fun entries ->
          let owner_rank = (List.hd entries).le_rank in
          (* Executing survivors for this group, intra-island-first
             relative to the entries' owner: NVLink-local survivors
             absorb the replays before any cross-island peer does. *)
          let sv = Array.of_list (ordered_survivors ~relative_to:owner_rank) in
          let n = Array.length sv in
          let owner_island = island_of owner_rank in
          (* Each replay group is one sequential stream, run by one
             cursor with its own causal worker, so replayed spans chain
             in order.  Replays take no pool unit and split no leading
             waits. *)
          let entries = ref entries in
          let next c =
            match !entries with
            | [] -> false
            | (e : ledger_entry) :: rest ->
              entries := rest;
              let task = task_of e in
              (* Round-robin the executing survivor per tile. *)
              let exec_rank = sv.(!next_exec mod n) in
              incr next_exec;
              let cross_island = island_of exec_rank <> owner_island in
              if cross_island then begin
                recovery.Chaos.cross_island_replays <-
                  recovery.Chaos.cross_island_replays + 1;
                metric_inc "recovery.cross_island_replays"
              end;
              let replay =
                if cross_island then Cross_island_replay else Replay
              in
              (* A replay is only as alive as its executor: a survivor
                 dying mid-replay must abandon, not plough on against
                 a dead rank's resources.  Replayed notifies are
                 checkpointed too, so a replay cut short by a second
                 crash resumes past the epochs it already
                 delivered. *)
              c.exec_rank <- exec_rank;
              c.replay <- replay;
              c.skip <- e.le_notified;
              c.nloads <- 0;
              load_task c ~instrs:task.Program.instrs ~lead:0
                ~entry:(Some e)
                ~label:(task.Program.label ^ replay_suffix replay);
              true
          in
          let c =
            make_cursor env ~lane:Trace.Comm_sm ~pool:None
              ~comm_active:(ref 0) ~rank:owner_rank ~next ~on_exit:ignore
              ~finished:(fun c ->
                Option.iter
                  (fun e ->
                    e.le_done <- true;
                    e.le_replaying <- false)
                  c.entry;
                incr replayed_total;
                recovery.Chaos.replayed_tiles <-
                  recovery.Chaos.replayed_tiles + 1)
              ~abandoned:(fun c ->
                (* The executing survivor died mid-replay: poison and
                   release the entry; the next sweep replays it on a
                   remaining survivor. *)
                Option.iter
                  (fun e ->
                    e.le_poisoned <- true;
                    e.le_replaying <- false)
                  c.entry;
                true)
          in
          Cursor.start c.sim (fun () -> begin_stream c))
        (runs pending)
  in
  let settle () =
    let rec go () =
      match Queue.peek_opt settling with
      | Some (dead, t_crash) when lost_entries ledger ~dead = [] ->
        ignore (Queue.pop settling);
        let latency = Cluster.now cluster -. t_crash in
        let replayed = !replayed_total - !settled_replayed in
        settled_replayed := !replayed_total;
        recovery.Chaos.failed_over <-
          recovery.Chaos.failed_over @ [ (dead, latency) ];
        metrics_set "recovery.replayed_tiles" (float_of_int replayed);
        metrics_observe "recovery.latency_us" latency;
        journal_ev (Obs.Journal.Resumed { rank = dead; replayed; latency });
        go ()
      | _ -> ()
    in
    go ()
  in
  let failover_hook () =
    while not (Queue.is_empty pending_crashes) do
      handle_crash (Queue.pop pending_crashes)
    done;
    spawn_replays ();
    settle ()
  in
  (* Structural stall triage pauses while a crash is mid-recovery: the
     never-sent signals it would trip on are the ones replay delivers. *)
  let recovering () = not (Queue.is_empty settling) in
  (* The watchdog is just another sim process; while it lives, the
     event queue never drains, so a genuine hang surfaces as a
     structured Chaos.Stall rather than Engine.Deadlock. *)
  (match chaos with
  | Some ({ Chaos.c_watchdog = Some wd; _ } as control) ->
    let hooks = if failover_armed then Some failover_hook else None in
    let quiesce = if failover_armed then Some recovering else None in
    Chaos.start_watchdog ?hooks ?quiesce ~engine ~channels ~telemetry
      ~control ~wd ()
  | _ -> ());
  (try Engine.run engine with
   | Engine.Deadlock msg ->
     (* Preserve the context the engine had when the run wedged: the
        journal keeps it next to the signal history that explains it,
        and the exception payload carries the pending-waiter set plus
        the journal tail for callers without telemetry access. *)
     if Obs.Telemetry.active telemetry then
       Obs.Journal.record
         (Obs.Telemetry.journal (Option.get telemetry))
         ~t:(Cluster.now cluster)
         (Obs.Journal.Deadlock
            { message = msg; blocked = Engine.blocked_processes engine });
     raise (Engine.Deadlock (enrich_deadlock channels ~telemetry msg)));
  if Obs.Telemetry.active telemetry then begin
    let tele = Option.get telemetry in
    let m = Obs.Telemetry.metrics tele in
    Obs.Metrics.set_gauge m "engine.events_executed"
      (float_of_int (Engine.executed_events engine));
    Obs.Metrics.set_gauge m "engine.blocked_time_us"
      (Engine.blocked_time engine);
    Obs.Metrics.set_gauge m "engine.makespan_us"
      (Cluster.now cluster -. start);
    Cluster.record_utilization cluster tele
  end;
  {
    makespan = Cluster.now cluster -. start;
    channels;
    memory;
    notifies = Channel.total_notifies channels;
  }
