(* Seeded chaos: machine-level fault injection plus the runtime's
   recovery machinery.

   Everything here is a pure function of an integer seed and simulation
   state: fault windows, straggler picks and per-notify drop decisions
   come from a splitmix64-style hash, never a wall clock, so the same
   seed replays the same faults and the same recovery — trial
   classifications and summary artifacts are byte-identical across
   runs.

   Two halves:
   - the *schedule*: which faults exist (link degradation/outage
     windows, compute stragglers, copy-engine stalls, dropped /
     duplicated / delayed signals) — installed as a channel interceptor
     and a cluster disturbance;
   - the *watchdog*: a simulation process that polls pending waits,
     distinguishes lost-in-flight signals (threshold <= intended value)
     from structurally missing ones, re-issues idempotent notifies with
     exponential backoff, and on exhaustion either raises a structured
     {!Stall} or force-releases the wait and marks the tile range for
     the non-overlapped fallback (the Degrade policy). *)

module Obs = Tilelink_obs
module Cluster = Tilelink_machine.Cluster

(* splitmix64: tiny, fast, and sequence-splittable — the canonical
   choice for reproducible fault schedules. *)
module Prng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create ~seed = { state = mix (Int64.add (Int64.of_int seed) golden) }

  let next t =
    t.state <- Int64.add t.state golden;
    mix t.state

  (* 53-bit mantissa in [0, 1). *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

  let range t lo hi = lo +. (float t *. (hi -. lo))
end

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Stateless decision hash: a float in [0, 1) determined only by the
   seed and the mixed-in parts.  Per-notify fault decisions use
   (key, occurrence#) so they survive any interleaving the engine
   happens to execute. *)
let hash_float ~seed parts =
  let z =
    List.fold_left
      (fun acc p -> Prng.mix (Int64.logxor acc p))
      (Prng.mix (Int64.of_int seed))
      parts
  in
  Int64.to_float (Int64.shift_right_logical (Prng.mix z) 11)
  /. 9007199254740992.0

(* Per-trial sub-seed, kept positive so it round-trips through CLIs. *)
let derive_seed ~seed ~index =
  Int64.to_int
    (Int64.logand
       (Prng.mix
          (Int64.logxor (Prng.mix (Int64.of_int seed)) (Int64.of_int (index + 1))))
       0x3FFFFFFFFFFFFFFFL)

(* ------------------------------------------------------------------ *)
(* Fault schedule                                                      *)
(* ------------------------------------------------------------------ *)

type spec = {
  link_degrade_prob : float;
  link_degrade_factor : float;
  link_outage_prob : float;
  link_outage_factor : float;
  straggler_prob : float;
  straggler_factor : float;
  copy_stall_prob : float;
  copy_stall_us : float;
  drop_prob : float;
  duplicate_prob : float;
  delay_prob : float;
  delay_us : float;
  reissue_drop_prob : float;
}

let default_spec =
  {
    link_degrade_prob = 0.3;
    link_degrade_factor = 0.25;
    link_outage_prob = 0.05;
    (* An "outage" is a 100x slowdown, not a zero rate: transfers
       admitted inside the window must still finish within the
       watchdog's structural-stall budget. *)
    link_outage_factor = 0.01;
    straggler_prob = 0.25;
    straggler_factor = 2.0;
    copy_stall_prob = 0.15;
    copy_stall_us = 5.0;
    drop_prob = 0.02;
    duplicate_prob = 0.02;
    delay_prob = 0.04;
    delay_us = 20.0;
    reissue_drop_prob = 0.2;
  }

let no_machine_faults spec =
  {
    spec with
    link_degrade_prob = 0.0;
    link_outage_prob = 0.0;
    straggler_prob = 0.0;
    copy_stall_prob = 0.0;
  }

let signal_faults_only ~drop_prob =
  {
    (no_machine_faults default_spec) with
    drop_prob;
    duplicate_prob = 0.0;
    delay_prob = 0.0;
    reissue_drop_prob = 0.0;
  }

type window = { w_from : float; w_until : float; w_factor : float }

(* A rank-crash fault: the rank dies at [cr_at] for good; its lost
   work is the failover coordinator's to replay. *)
type crash = { cr_at : float }

type schedule = {
  seed : int;
  spec : spec;
  horizon_us : float;
  link_windows : window list array;
  copy_windows : window list array;
  straggler : float array;
  (* Per-island NIC partition windows, only ever pinned by
     [with_nic_partitions].  Empty (zero-length) on flat schedules. *)
  nic_partitions : window list array;
  mutable crash_faults : (int * crash) list;
  (* Occurrence counter per signal key: the n-th notify on a key gets a
     decision hashed from (seed, key, n). *)
  counts : (string, int) Hashtbl.t;
  mutable reissues : int;
  (* Injection log, newest first: (fault kind, subject). *)
  mutable injected : (string * string) list;
}

let note sched kind subject = sched.injected <- (kind, subject) :: sched.injected

let plan ?(spec = default_spec) ?(horizon_us = 2000.0) ?(crash_ranks = 0)
    ?layout ~seed ~world_size () =
  if world_size <= 0 then invalid_arg "Chaos.plan: world_size";
  if horizon_us <= 0.0 then invalid_arg "Chaos.plan: horizon_us";
  if crash_ranks < 0 || crash_ranks > world_size then
    invalid_arg "Chaos.plan: crash_ranks out of range";
  let num_islands =
    match layout with
    | None -> 0
    | Some l -> Tilelink_machine.Topology.islands l
  in
  let sched =
    {
      seed;
      spec;
      horizon_us;
      link_windows = Array.make world_size [];
      copy_windows = Array.make world_size [];
      straggler = Array.make world_size 1.0;
      nic_partitions = Array.make num_islands [];
      crash_faults = [];
      counts = Hashtbl.create 64;
      reissues = 0;
      injected = [];
    }
  in
  for rank = world_size - 1 downto 0 do
    let rng = Prng.create ~seed:(derive_seed ~seed ~index:(rank * 7919)) in
    let mk_window factor =
      let a = Prng.range rng 0.0 horizon_us in
      let b = Prng.range rng a horizon_us in
      { w_from = a; w_until = Float.max b (a +. (0.05 *. horizon_us)); w_factor = factor }
    in
    let subj = Printf.sprintf "rank%d" rank in
    if Prng.float rng < spec.link_degrade_prob then begin
      sched.link_windows.(rank) <-
        mk_window spec.link_degrade_factor :: sched.link_windows.(rank);
      note sched "link_degrade" subj
    end;
    if Prng.float rng < spec.link_outage_prob then begin
      sched.link_windows.(rank) <-
        mk_window spec.link_outage_factor :: sched.link_windows.(rank);
      note sched "link_outage" subj
    end;
    if Prng.float rng < spec.straggler_prob then begin
      sched.straggler.(rank) <- spec.straggler_factor;
      note sched "straggler" subj
    end;
    if Prng.float rng < spec.copy_stall_prob then begin
      sched.copy_windows.(rank) <- [ mk_window 0.0 ];
      note sched "copy_stall" subj
    end
  done;
  (* Forced deterministic crashes for [crash_ranks]: victims and crash
     instants are drawn from a dedicated sub-stream so they neither
     perturb the per-rank draws above nor depend on them.  On a
     topology run the forced crashes are *correlated*: victims fill
     whole islands (drawn without replacement), every rank of an
     island dying at the same instant — [--crash-ranks 8] on
     islands2x8 is exactly "one island dies". *)
  if crash_ranks > 0 then begin
    let crng = Prng.create ~seed:(derive_seed ~seed ~index:104729) in
    let draw_mod m =
      Int64.to_int
        (Int64.rem (Int64.logand (Prng.next crng) Int64.max_int) (Int64.of_int m))
    in
    let draw_at () = Prng.range crng (0.15 *. horizon_us) (0.45 *. horizon_us) in
    let crash r ~at =
      sched.crash_faults <- (r, { cr_at = at }) :: sched.crash_faults;
      note sched "rank_crash" (Printf.sprintf "rank%d" r)
    in
    (* Victims drawn so far: islands on a topology run, ranks otherwise. *)
    let drawn = Hashtbl.create 4 in
    match layout with
    | Some l when num_islands > 1 ->
      let forced = ref 0 in
      while !forced < crash_ranks do
        let island = draw_mod num_islands in
        if not (Hashtbl.mem drawn island) then begin
          Hashtbl.replace drawn island ();
          let at = draw_at () in
          for r = 0 to world_size - 1 do
            if
              !forced < crash_ranks
              && Tilelink_machine.Topology.island_of l r = island
            then begin
              crash r ~at;
              incr forced
            end
          done
        end
      done
    | _ ->
      while Hashtbl.length drawn < crash_ranks do
        let r = draw_mod world_size in
        if not (Hashtbl.mem drawn r) then begin
          Hashtbl.replace drawn r ();
          crash r ~at:(draw_at ())
        end
      done
  end;
  sched

(* Crash faults ordered by crash instant (rank breaks ties) — the order
   the runtime schedules the kill thunks in. *)
let crashes sched =
  List.sort
    (fun (r1, c1) (r2, c2) ->
      match compare c1.cr_at c2.cr_at with 0 -> compare r1 r2 | c -> c)
    sched.crash_faults

(* Replace the planned crash faults wholesale.  The seeded draws cannot
   pin exact crash instants; tests and reproductions that need them
   (e.g. "second crash lands mid-replay of the first") build a schedule
   with [plan] and then install the crash list explicitly. *)
let with_crashes sched faults =
  sched.crash_faults <- faults;
  sched

let injected sched = List.rev sched.injected

(* Interceptor: per-notify decisions hashed from (seed, key,
   occurrence).  The occurrence counter is the only mutable state and
   advances identically on every replay because the engine itself is
   deterministic. *)
let decision sched ~kind:_ ~key ~rank:_ ~amount:_ =
  let n = Option.value ~default:0 (Hashtbl.find_opt sched.counts key) in
  Hashtbl.replace sched.counts key (n + 1);
  let u = hash_float ~seed:sched.seed [ fnv1a key; Int64.of_int n; 11L ] in
  let s = sched.spec in
  if u < s.drop_prob then begin
    note sched "drop" key;
    Channel.Drop
  end
  else if u < s.drop_prob +. s.duplicate_prob then begin
    note sched "duplicate" key;
    Channel.Duplicate
  end
  else if u < s.drop_prob +. s.duplicate_prob +. s.delay_prob then begin
    note sched "delay" key;
    let jitter = hash_float ~seed:sched.seed [ fnv1a key; Int64.of_int n; 13L ] in
    Channel.Delay (s.delay_us *. (0.5 +. jitter))
  end
  else Channel.Deliver

let interceptor sched : Channel.interceptor =
 fun ~kind ~key ~rank ~amount -> decision sched ~kind ~key ~rank ~amount

(* Even recovery is lossy under chaos: each watchdog re-issue flips a
   seeded coin, which is what makes bounded retry + backoff observable
   rather than always succeeding on the first attempt. *)
let reissue_ok sched =
  let n = sched.reissues in
  sched.reissues <- n + 1;
  hash_float ~seed:sched.seed [ Int64.of_int n; 17L ] >= sched.spec.reissue_drop_prob

let window_factor windows ~now =
  List.fold_left
    (fun acc w ->
      if now >= w.w_from && now < w.w_until then Float.min acc w.w_factor
      else acc)
    1.0 windows

(* Whether [node]'s NIC sits inside a planned partition window at
   [now]: the island is cut off from the bridged fabric.  Transfers
   admitted inside the window crawl (the Bandwidth clamp keeps the
   rate nonzero) and the failover coordinator uses this to triage an
   unbridgeable cut as structural. *)
let partitioned sched ~node ~now =
  node >= 0
  && node < Array.length sched.nic_partitions
  && List.exists
       (fun w -> now >= w.w_from && now < w.w_until)
       sched.nic_partitions.(node)

(* Pin explicit partition windows per node, like [with_crashes] pins
   crash instants — the seeded draws cannot. *)
let with_nic_partitions sched windows =
  Array.fill sched.nic_partitions 0 (Array.length sched.nic_partitions) [];
  List.iter
    (fun (node, w) ->
      if node < 0 || node >= Array.length sched.nic_partitions then
        invalid_arg "Chaos.with_nic_partitions: node out of range";
      sched.nic_partitions.(node) <- w :: sched.nic_partitions.(node))
    windows;
  sched

let disturbance sched =
  let link rank =
    if rank >= 0 && rank < Array.length sched.link_windows then
      sched.link_windows.(rank)
    else []
  in
  {
    Cluster.link_rate = (fun ~rank ~now -> window_factor (link rank) ~now);
    (* A partition is a zero factor — the Bandwidth clamp turns it into
       a crawl, and the watchdog/coordinator decide what counts as
       stalled. *)
    nic_rate =
      (fun ~node ~now -> if partitioned sched ~node ~now then 0.0 else 1.0);
    compute =
      (fun ~rank ~now:_ ->
        if rank >= 0 && rank < Array.length sched.straggler then
          sched.straggler.(rank)
        else 1.0);
    copy_stall_us =
      (fun ~rank ~now ->
        let windows =
          if rank >= 0 && rank < Array.length sched.copy_windows then
            sched.copy_windows.(rank)
          else []
        in
        if window_factor windows ~now < 1.0 then sched.spec.copy_stall_us
        else 0.0);
  }

let apply_to_cluster sched cluster =
  Cluster.set_disturbance cluster (disturbance sched)

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

type policy = Fail_stop | Degrade | Failover

type watchdog = {
  poll_interval_us : float;
  wait_timeout_us : float;
      (* age after which a wait whose signal was sent-but-lost is
         suspected and retried *)
  stall_timeout_us : float;
      (* age after which a wait whose signal was never sent is declared
         structural — longer, so slow producers are not misdiagnosed *)
  max_retries : int;
  backoff_base_us : float;
  retry : bool;
  policy : policy;
}

let default_watchdog =
  {
    poll_interval_us = 25.0;
    wait_timeout_us = 500.0;
    stall_timeout_us = 2000.0;
    max_retries = 5;
    backoff_base_us = 50.0;
    retry = true;
    policy = Fail_stop;
  }

type stall = {
  stall_key : string;
  stall_kind : string;
  stall_owner : int;
  stall_channel : int option;
  stall_rank : int;
  stall_threshold : int;
  stall_value : int;
  stall_intended : int;
  stall_since : float;
  stall_at : float;
  stall_waiters : (string * int * int) list;
}

exception Stall of stall

(* Decompose a counter key into (kind, producing rank, channel):
   "pc[3][7]" is rank 3's producer/consumer channel 7 (the tile
   coordinate under the program's channel mapping); "peer[2<-1][0]" is
   produced by rank 1; "host[2<-0]" by rank 0's copy engine. *)
let parse_key key =
  match Instr.target_of_key key with
  | Some target ->
    let kind =
      match target with
      | Instr.Pc _ -> "pc"
      | Instr.Peer _ -> "peer"
      | Instr.Host _ -> "host"
    in
    (kind, Instr.producer_of_target target, Instr.channel_of_target target)
  | None -> ("unknown", -1, None)

let stall_to_string s =
  let channel =
    match s.stall_channel with
    | Some c -> Printf.sprintf " channel/tile %d" c
    | None -> ""
  in
  let waiters =
    String.concat "; "
      (List.map
         (fun (key, rank, threshold) ->
           Printf.sprintf "rank %d waits %s >= %d" rank key threshold)
         s.stall_waiters)
  in
  Printf.sprintf
    "stalled wait on %s (%s signal produced by rank %d%s): waiter rank %d \
     needs >= %d, value %d, intended %d; blocked since t=%.1f, detected \
     t=%.1f; waiters-for: [%s]"
    s.stall_key s.stall_kind s.stall_owner channel s.stall_rank
    s.stall_threshold s.stall_value s.stall_intended s.stall_since s.stall_at
    waiters

type recovery = {
  mutable retries : int;
  mutable recovered : (string * float) list;  (* key, latency µs; in order *)
  mutable degraded : string list;  (* keys force-released, in order *)
  mutable stalls : stall list;
  (* Elastic-failover bookkeeping, filled by the runtime's recovery
     coordinator (not the watchdog loop itself). *)
  mutable failed_over : (int * float) list;
      (* (crashed rank, detect->resume latency µs), in crash order *)
  mutable remapped_tiles : int;
  mutable replayed_tiles : int;
  mutable total_tiles : int;
  mutable cross_island_replays : int;
      (* replays the coordinator had to place on a survivor outside
         the crashed rank's NVLink island (0 on flat topologies) *)
}

let fresh_recovery () =
  {
    retries = 0;
    recovered = [];
    degraded = [];
    stalls = [];
    failed_over = [];
    remapped_tiles = 0;
    replayed_tiles = 0;
    total_tiles = 0;
    cross_island_replays = 0;
  }

(* The one stall path, shared by the watchdog and the failover
   coordinator: build the diagnostic with every blocked wait as its
   waiters-for list, record it, journal it, count it, raise it. *)
let raise_stall ~telemetry ~recovery ~channels ~key ~kind ~owner ~channel
    ~rank ~threshold ~value ~intended ~since ~now =
  let stall =
    {
      stall_key = key;
      stall_kind = kind;
      stall_owner = owner;
      stall_channel = channel;
      stall_rank = rank;
      stall_threshold = threshold;
      stall_value = value;
      stall_intended = intended;
      stall_since = since;
      stall_at = now;
      stall_waiters =
        List.map
          (fun (pw : Channel.pending_wait) ->
            (pw.Channel.pw_key, pw.Channel.pw_rank, pw.Channel.pw_threshold))
          (Channel.pending_waits channels);
    }
  in
  recovery.stalls <- recovery.stalls @ [ stall ];
  if Obs.Telemetry.active telemetry then begin
    let tele = Option.get telemetry in
    Obs.Journal.record (Obs.Telemetry.journal tele) ~t:now
      (Obs.Journal.Stall_detected { key; rank; threshold; value });
    Obs.Metrics.inc (Obs.Telemetry.metrics tele) "recovery.stalls"
  end;
  raise (Stall stall)

type control = {
  c_schedule : schedule option;
  c_watchdog : watchdog option;
  c_recovery : recovery;
}

let control ?schedule ?watchdog () =
  { c_schedule = schedule; c_watchdog = watchdog; c_recovery = fresh_recovery () }

(* Oldest overdue wait per key, carrying the largest threshold anybody
   on that key is blocked on.  Input is already sorted oldest-first. *)
let group_overdue overdue =
  List.fold_left
    (fun acc (pw : Channel.pending_wait) ->
      match List.assoc_opt pw.Channel.pw_key acc with
      | None -> acc @ [ (pw.Channel.pw_key, pw) ]
      | Some rep when pw.Channel.pw_threshold > rep.Channel.pw_threshold ->
        List.map
          (fun (k, r) ->
            if k = pw.Channel.pw_key then
              (k, { r with Channel.pw_threshold = pw.Channel.pw_threshold })
            else (k, r))
          acc
      | Some _ -> acc)
    [] overdue

(* The watchdog: a cursor started by the runtime after the execution
   streams, polls while anything else is alive, and turns overdue
   waits into retries, degradations or a structured Stall.  All timing
   is simulation time; all randomness is the schedule's seeded coin. *)
let start_watchdog ?hooks ?quiesce ~engine ~channels ~telemetry
    ~(control : control) ~wd () =
  let open Tilelink_sim in
  let sim = Cursor.create engine in
  let recov = control.c_recovery in
  let retry_state : (string, int * float) Hashtbl.t = Hashtbl.create 8 in
  let journal_ev ev =
    if Obs.Telemetry.active telemetry then
      Obs.Journal.record
        (Obs.Telemetry.journal (Option.get telemetry))
        ~t:(Engine.now engine) ev
  in
  let metric name =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.inc (Obs.Telemetry.metrics (Option.get telemetry)) name
  in
  let observe name v =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.observe (Obs.Telemetry.metrics (Option.get telemetry)) name v
  in
  (* The watchdog is its own sequential causal stream; its re-issue
     spans must be recorded *before* the force_signal wakes the blocked
     wait, so the wait's resolution finds the delivery candidate. *)
  let span_worker =
    if Obs.Telemetry.active telemetry then
      Obs.Span.fresh_worker (Obs.Telemetry.spans (Option.get telemetry))
    else -1
  in
  let span_retry ~label ~key ~rank ~value ~t0 ~t1 =
    if Obs.Telemetry.active telemetry then
      Obs.Span.record_retry
        (Obs.Telemetry.spans (Option.get telemetry))
        ~label ~rank ~worker:span_worker ~key ~value ~t0 ~t1
  in
  let give_up ~now (rep : Channel.pending_wait) ~value ~intended =
    match wd.policy with
    (* Failover handles *crash* faults through the hooks; an exhausted
       signal-fault retry under Failover degrades gracefully rather than
       fail-stopping the whole run. *)
    | Degrade | Failover ->
      recov.degraded <- recov.degraded @ [ rep.Channel.pw_key ];
      journal_ev
        (Obs.Journal.Degraded
           { key = rep.Channel.pw_key; rank = rep.Channel.pw_rank });
      metric "recovery.degraded";
      Hashtbl.remove retry_state rep.Channel.pw_key;
      span_retry ~label:"watchdog.degrade" ~key:rep.Channel.pw_key
        ~rank:rep.Channel.pw_rank ~value:rep.Channel.pw_threshold
        ~t0:rep.Channel.pw_since ~t1:now;
      Channel.force_signal channels ~key:rep.Channel.pw_key
        ~target:rep.Channel.pw_threshold
    | Fail_stop ->
      let kind, owner, channel = parse_key rep.Channel.pw_key in
      raise_stall ~telemetry ~recovery:recov ~channels ~key:rep.Channel.pw_key
        ~kind ~owner ~channel ~rank:rep.Channel.pw_rank
        ~threshold:rep.Channel.pw_threshold ~value ~intended
        ~since:rep.Channel.pw_since ~now
  in
  let attempt_retry ~now (rep : Channel.pending_wait) ~intended =
    let key = rep.Channel.pw_key in
    let attempts, next_at =
      Option.value ~default:(0, 0.0) (Hashtbl.find_opt retry_state key)
    in
    if attempts >= wd.max_retries then `Exhausted
    else if now < next_at then `Waiting
    else begin
      recov.retries <- recov.retries + 1;
      journal_ev
        (Obs.Journal.Retry
           { key; rank = rep.Channel.pw_rank; attempt = attempts + 1 });
      metric "recovery.retries";
      let delivered =
        match control.c_schedule with
        | Some sched -> reissue_ok sched
        | None -> true
      in
      if delivered then begin
        span_retry ~label:"watchdog.retry" ~key ~rank:rep.Channel.pw_rank
          ~value:intended ~t0:rep.Channel.pw_since ~t1:now;
        Channel.force_signal channels ~key ~target:intended;
        let latency = now -. rep.Channel.pw_since in
        recov.recovered <- recov.recovered @ [ (key, latency) ];
        journal_ev
          (Obs.Journal.Recovered
             { key; rank = rep.Channel.pw_rank; latency });
        metric "recovery.recovered";
        observe "recovery.latency_us" latency;
        Hashtbl.remove retry_state key;
        `Recovered
      end
      else begin
        Hashtbl.replace retry_state key
          ( attempts + 1,
            now +. (wd.backoff_base_us *. (2.0 ** float_of_int attempts)) );
        `Backoff
      end
    end
  in
  let tick () =
    (* Failover hooks run first, and *before* the live-process check:
       a crash can drain every worker (they all abandon), leaving only
       the watchdog live — the recovery coordinator must still get its
       chance to remap and replay before the watchdog exits.  They also
       must run before overdue-wait retry processing so a dead rank's
       channels are remapped before any force_signal touches them. *)
    (match hooks with Some h -> h () | None -> ());
    (* The watchdog itself counts as one live process: anything beyond
       that is real work still running (or blocked). *)
    if Engine.live_processes engine > 1 then begin
      let now = Engine.now engine in
      (* While failover replay is in flight, a never-sent signal is most
         likely one the replay is about to produce: deferring structural
         triage until recovery settles keeps the watchdog from
         force-releasing waits whose data is en route.  Recoverable
         waits (signal issued, then lost) are still retried — the remap
         already happened, so the force-signal lands on the right
         counter. *)
      let defer_structural =
        match quiesce with Some q -> q () | None -> false
      in
      let overdue =
        List.filter
          (fun (pw : Channel.pending_wait) ->
            now -. pw.Channel.pw_since >= wd.wait_timeout_us)
          (Channel.pending_waits channels)
      in
      List.iter
        (fun (key, (rep : Channel.pending_wait)) ->
          let value = Option.value ~default:0 (Channel.key_value channels ~key) in
          let intended = Channel.intended_value channels ~key in
          let recoverable = intended >= rep.Channel.pw_threshold in
          if recoverable then begin
            if wd.retry then begin
              match attempt_retry ~now rep ~intended with
              | `Recovered | `Waiting | `Backoff -> ()
              | `Exhausted -> give_up ~now rep ~value ~intended
            end
            else give_up ~now rep ~value ~intended
          end
          else if
            (not defer_structural)
            && now -. rep.Channel.pw_since >= wd.stall_timeout_us
          then
            (* Never-sent signal: only declared structural once even a
               pathological straggler would have produced it. *)
            give_up ~now rep ~value ~intended)
        (group_overdue overdue);
      Cursor.wait sim wd.poll_interval_us
    end
    else Cursor.finish sim
  in
  Cursor.set_step sim tick;
  Cursor.start sim (fun () -> Cursor.wait sim wd.poll_interval_us)
