(* Chaos harness: seeded fault-injection trials over real workloads.

   A trial is a pair of runs of the same small, numerically-validated
   kernel: a fault-free run (ideal makespan + reference outputs), then
   a chaos run with a seeded schedule, a watchdog scaled to the ideal
   makespan, and data validation at the end.  The trial is classified
   from what the watchdog had to do:

     Clean       nothing injected needed recovery
     Recovered   the watchdog re-issued at least one lost signal
     Failed_over a rank crashed and the failover coordinator remapped
                 its unfinished tiles onto the survivors and replayed
                 them; numerics must still be bit-identical
     Degraded    at least one wait was force-released; the affected tile
                 range is re-executed on the non-overlapped baseline path
                 and its analytic cost charged on top of the makespan
     Stalled     the watchdog raised a structured Stall (Fail_stop), or
                 a crash left no survivors

   Everything — fault draws, retry coin flips, trial sub-seeds — hangs
   off one integer seed through simulation-time-only PRNGs, so the
   same seed produces byte-identical classifications and summary JSON
   on every run. *)

open Tilelink_core
open Tilelink_machine
module Obs = Tilelink_obs
module Mlp = Tilelink_workloads.Mlp
module Moe = Tilelink_workloads.Moe
module Attention = Tilelink_workloads.Attention
module Check = Tilelink_tensor.Check
module Pool = Tilelink_exec.Pool
module Stats = Tilelink_sim.Stats
module Nonoverlap = Tilelink_baselines.Nonoverlap
module Moe_baselines = Tilelink_baselines.Moe_baselines
module Attention_baselines = Tilelink_baselines.Attention_baselines

type workload = Mlp_ag_gemm | Moe_part2 | Attention_ag

let workload_to_string = function
  | Mlp_ag_gemm -> "mlp"
  | Moe_part2 -> "moe"
  | Attention_ag -> "attention"

let workload_of_string = function
  | "mlp" -> Some Mlp_ag_gemm
  | "moe" -> Some Moe_part2
  | "attention" -> Some Attention_ag
  | _ -> None

type classification = Clean | Recovered | Failed_over | Degraded | Stalled

let classification_to_string = function
  | Clean -> "clean"
  | Recovered -> "recovered"
  | Failed_over -> "failed_over"
  | Degraded -> "degraded"
  | Stalled -> "stalled"

type stall_info = {
  si_key : string;
  si_kind : string;
  si_owner : int;
  si_channel : int option;
  si_rank : int;
  si_tile_rows : (int * int) option;
}

type trial = {
  index : int;
  trial_seed : int;
  classification : classification;
  ideal_us : float;
  makespan_us : float;
  fallback_us : float;
  total_us : float;
  achieved_overlap : float;
  overlap_efficiency : float;
  recovery_overhead_us : float;
  numerics_ok : bool;
  retries : int;
  recovered_signals : (string * float) list;
  degraded_keys : string list;
  faults : (string * string) list;
  stall : stall_info option;
  (* Failover bookkeeping; all zero/empty on crash-free trials, and the
     JSON export omits the fields entirely then so pre-crash summaries
     stay byte-identical. *)
  failed_over_ranks : (int * float) list;  (* (rank, latency µs) *)
  remapped_tiles : int;
  replayed_tiles : int;
  total_tiles : int;
  (* Topology bookkeeping; [None] for the default flat cases, and the
     JSON export omits the fields then so flat summaries stay
     byte-identical. *)
  topology : string option;
  cross_island_replays : int;
}

type summary = {
  s_workload : workload;
  s_seed : int;
  s_trials : trial list;
  s_clean : int;
  s_recovered : int;
  s_failed_over : int;
  s_degraded : int;
  s_stalled : int;
  s_recovery_latencies : float list;
  s_failover_latencies : float list;
  s_overlap_efficiency : float;
  s_recovery_overhead_us : float;
  s_topology : string option;
  s_cross_island_replays : int;
}

(* One benchmark case: how to build/allocate/validate the workload,
   its analytic non-overlapped cost, and how a pc channel index maps
   back to tile rows (the coordinate a Stall diagnostic reports). *)
type case = {
  world : int;
  machine : Spec.t;
  pc_channels : int;
  tile_rows : int -> (int * int) option;
  build : unit -> Program.t;
  alloc : unit -> Memory.t;
  check : Memory.t -> bool;
  baseline_us : float;
}

(* The default cases run world 4/4/2 on the flat test machine; a
   topology run keeps the same per-rank tile volume and scales the
   global shape with the topology's natural world size, so every rank
   still owns m/world = 4 rows (mlp), 4 tokens (moe) or 8 query rows
   (attention) regardless of how many islands the world spans. *)
let mlp_case ?(world = 4) () =
  let machine = Calib.test_machine in
  let shapes = { Mlp.m = 4 * world; k = 4; n = 6; world_size = world } in
  let comm_rows = 2 in
  let config =
    {
      Design_space.comm_tile = (comm_rows, 128);
      compute_tile = (2, 2);
      comm_order = Tile.Ring_from_self { segments = world };
      compute_order = Tile.Ring_from_self { segments = world };
      binding = Design_space.Comm_on_sm 1;
      stages = 2;
      micro_block = 0;
    }
  in
  {
    world;
    machine;
    pc_channels = shapes.Mlp.m / world / comm_rows;
    tile_rows = (fun c -> Some (c * comm_rows, (c + 1) * comm_rows));
    build =
      (fun () -> Mlp.ag_gemm_program ~config shapes ~spec_gpu:machine);
    alloc = (fun () -> Mlp.ag_gemm_alloc shapes ~seed:11);
    check =
      (fun memory ->
        List.for_all
          (fun rank ->
            Check.close
              (Mlp.ag_gemm_reference memory shapes ~rank)
              (Memory.find memory ~rank ~name:"y"))
          (List.init world Fun.id));
    baseline_us =
      Nonoverlap.ag_gemm_time machine ~world_size:world ~m:shapes.Mlp.m
        ~k:shapes.Mlp.k ~n:shapes.Mlp.n;
  }

let moe_case ?(world = 4) () =
  let machine = Calib.test_machine in
  let moe =
    {
      Moe.tokens = 4 * world;
      hidden = 4;
      intermediate = 2 * world;
      experts = world;
      topk = 2;
      world_size = world;
    }
  in
  let route = Moe.routing moe ~seed:3 in
  let gg_rows = 2 in
  let config =
    {
      Moe.gg_tile_rows = gg_rows;
      reduce_tile_rows = 2;
      rs_tile_rows = 2;
      reduce_sms = 1;
      rs_sms = 1;
    }
  in
  {
    world;
    machine;
    pc_channels = Moe.permuted_rows moe / gg_rows;
    tile_rows = (fun c -> Some (c * gg_rows, (c + 1) * gg_rows));
    build = (fun () -> Moe.part2_program ~config moe route ~spec_gpu:machine);
    alloc = (fun () -> Moe.part2_alloc moe ~seed:4);
    check =
      (fun memory ->
        List.for_all
          (fun rank ->
            Check.close ~atol:1e-8
              (Moe.part2_reference memory moe route ~rank)
              (Memory.find memory ~rank ~name:"out"))
          (List.init world Fun.id));
    baseline_us = Moe_baselines.cublas_part2 machine moe route;
  }

let attention_case ?(world = 2) () =
  let machine = Calib.test_machine in
  let spec =
    {
      Attention.batch_heads = 2;
      seq = 8 * world;
      head_dim = 4;
      world_size = world;
      causal = false;
    }
  in
  let config = { Attention.q_tile = 4; kv_tile = 4 } in
  {
    world;
    machine;
    pc_channels = 1;
    tile_rows = (fun _ -> None);
    build = (fun () -> Attention.program ~config spec ~spec_gpu:machine);
    alloc = (fun () -> Attention.alloc spec ~seed:51);
    check =
      (fun memory ->
        List.for_all
          (fun rank ->
            Check.close
              (Attention.reference memory spec ~rank)
              (Memory.find memory ~rank ~name:"o"))
          (List.init world Fun.id));
    baseline_us = Attention_baselines.torch_time machine spec;
  }

let case_of ?world = function
  | Mlp_ag_gemm -> mlp_case ?world ()
  | Moe_part2 -> moe_case ?world ()
  | Attention_ag -> attention_case ?world ()

let program ?world workload = (case_of ?world workload).build ()

(* Scale the watchdog to the workload: suspicion after twice the ideal
   makespan (a delivered-but-slow signal can never be that late on
   these small kernels), structural give-up well beyond any straggler
   slack. *)
let scaled_watchdog ~ideal ~retry ~policy =
  {
    Chaos.poll_interval_us = Float.max 1.0 (ideal /. 50.0);
    wait_timeout_us = Float.max 20.0 (ideal *. 2.0);
    stall_timeout_us = Float.max 100.0 (ideal *. 8.0);
    max_retries = 5;
    backoff_base_us = Float.max 2.0 (ideal /. 10.0);
    retry;
    policy;
  }

let affected_fraction case degraded_keys =
  let distinct = List.length (List.sort_uniq compare degraded_keys) in
  let total = Float.max 1.0 (float_of_int (case.pc_channels * case.world)) in
  Float.min 1.0 (Float.max (float_of_int distinct /. total) (1.0 /. total))

let stall_info_of case (s : Chaos.stall) =
  {
    si_key = s.Chaos.stall_key;
    si_kind = s.Chaos.stall_kind;
    si_owner = s.Chaos.stall_owner;
    si_channel = s.Chaos.stall_channel;
    si_rank = s.Chaos.stall_rank;
    si_tile_rows = Option.bind s.Chaos.stall_channel case.tile_rows;
  }

(* The case and its fault-free run: the ideal makespan, and proof the
   memory checker passes without faults.  Neither depends on the seed or
   the trial index, so a sweep makes them once. *)
let trial_base ?topology workload =
  let case =
    case_of ?world:(Option.map Topology.natural_world topology) workload
  in
  let memory = case.alloc () in
  let cluster = Cluster.create ?topology case.machine ~world_size:case.world in
  let r = Runtime.run ~data:true ~memory cluster (case.build ()) in
  if not (case.check memory) then
    failwith
      (Printf.sprintf "Harness.trial_base: %s%s fails its memory check \
                       without faults"
         (workload_to_string workload)
         (match topology with
         | Some t -> " on " ^ Topology.name t
         | None -> ""));
  (case, r.Runtime.makespan)

let run_trial_impl ?(spec = Chaos.default_spec) ?(retry = true)
    ?(policy = Chaos.Degrade) ?(crash_ranks = 0) ?watchdog ?topology
    ?(profile = false) ~base:(case, ideal) ~seed ~index () =
  let layout =
    Option.map (fun t -> Topology.layout t ~world_size:case.world) topology
  in
  let trial_seed = Chaos.derive_seed ~seed ~index in
  (* Crash trials promise bit-identical numerics after replay, so the
     signal faults whose recovery path is a degraded (stale-read)
     fallback are zeroed; machine-level timing faults stay on.  The
     spec is untouched when no crashes are requested, preserving
     byte-identical crash-free schedules. *)
  let spec =
    if crash_ranks = 0 then spec
    else
      {
        spec with
        Chaos.drop_prob = 0.0;
        duplicate_prob = 0.0;
        delay_prob = 0.0;
        reissue_drop_prob = 0.0;
      }
  in
  (* Crashes are only recoverable under Failover; upgrade the default
     policy rather than making every caller remember to. *)
  let policy =
    if crash_ranks > 0 && policy = Chaos.Degrade then Chaos.Failover
    else policy
  in
  let wd =
    match watchdog with
    | Some wd -> wd
    | None -> scaled_watchdog ~ideal ~retry ~policy
  in
  let sched =
    Chaos.plan ~spec ?layout ~seed:trial_seed ~world_size:case.world
      ~horizon_us:(Float.max 1.0 (ideal *. 1.5))
      ~crash_ranks ()
  in
  let control = Chaos.control ~schedule:sched ~watchdog:wd () in
  (* A plain trial reads only the spans (attribution); a profiled one
     also exports the trace, metrics and journal. *)
  let telemetry =
    if profile then Obs.Telemetry.create () else Obs.Telemetry.spans_only ()
  in
  let memory = case.alloc () in
  let cluster =
    Cluster.create ~trace_enabled:profile ?topology case.machine
      ~world_size:case.world
  in
  let finish ~classification ~makespan ~fallback ~numerics_ok ~stall =
    let recov = control.Chaos.c_recovery in
    let total = makespan +. fallback in
    (* Causal attribution over the chaos run's spans: the overlap
       efficiency the schedule actually achieved under faults, and the
       recovery work (retries + replays) on the critical path.  Both
       are pure functions of simulated time, so they are as
       deterministic as the rest of the trial record. *)
    let attribution =
      Obs.Attribution.of_spans ~makespan
        (Obs.Span.spans (Obs.Telemetry.spans telemetry))
    in
    {
      index;
      trial_seed;
      classification;
      ideal_us = ideal;
      makespan_us = makespan;
      fallback_us = fallback;
      total_us = total;
      achieved_overlap = (if total > 0.0 then ideal /. total else 1.0);
      overlap_efficiency = attribution.Obs.Attribution.efficiency;
      recovery_overhead_us =
        attribution.Obs.Attribution.buckets.Obs.Attribution.recovery;
      numerics_ok;
      retries = recov.Chaos.retries;
      recovered_signals = recov.Chaos.recovered;
      degraded_keys = recov.Chaos.degraded;
      faults = Chaos.injected sched;
      stall;
      failed_over_ranks = recov.Chaos.failed_over;
      remapped_tiles = recov.Chaos.remapped_tiles;
      replayed_tiles = recov.Chaos.replayed_tiles;
      total_tiles = recov.Chaos.total_tiles;
      topology = Option.map Topology.name topology;
      cross_island_replays = recov.Chaos.cross_island_replays;
    }
  in
  let trial =
    match
      (* Teardown hardening: a Stall (or any other early exit) must not
         leave the chaos disturbance installed on the cluster — later
         users of the same cluster would inherit poisoned link rates
         and straggler windows. *)
      Fun.protect
        ~finally:(fun () -> Cluster.clear_disturbance cluster)
        (fun () ->
          Runtime.run ~telemetry ~data:true ~memory ~chaos:control cluster
            ~rebuild:case.build (case.build ()))
    with
    | result ->
      let recov = control.Chaos.c_recovery in
      if recov.Chaos.degraded <> [] then begin
        (* Degradation force-released waits, so the affected consumers
           may have read stale tiles.  Model the fallback: re-execute
           the data semantics fault-free into a fresh allocation (same
           seed, hence same inputs — a non-overlapped recomputation of
           the affected range) and charge the analytic baseline cost
           for the affected fraction of tiles. *)
        let memory2 = case.alloc () in
        let cluster2 =
          Cluster.create ?topology case.machine ~world_size:case.world
        in
        ignore
          (Runtime.run ~data:true ~memory:memory2 cluster2 (case.build ()));
        let fallback =
          affected_fraction case recov.Chaos.degraded *. case.baseline_us
        in
        finish ~classification:Degraded ~makespan:result.Runtime.makespan
          ~fallback ~numerics_ok:(case.check memory2) ~stall:None
      end
      else if recov.Chaos.failed_over <> [] then
        (* Replay already re-executed the lost tiles on the survivors,
           so numerics are checked on the same memory and no fallback
           cost is charged beyond what the makespan absorbed. *)
        finish ~classification:Failed_over ~makespan:result.Runtime.makespan
          ~fallback:0.0 ~numerics_ok:(case.check memory) ~stall:None
      else
        let classification =
          if recov.Chaos.recovered <> [] || recov.Chaos.retries > 0 then
            Recovered
          else Clean
        in
        finish ~classification ~makespan:result.Runtime.makespan
          ~fallback:0.0 ~numerics_ok:(case.check memory) ~stall:None
    | exception Chaos.Stall s ->
      (* The run never completed: charge the time burned until
         detection plus a full non-overlapped restart. *)
      finish ~classification:Stalled ~makespan:s.Chaos.stall_at
        ~fallback:case.baseline_us ~numerics_ok:false
        ~stall:(Some (stall_info_of case s))
  in
  (trial, Cluster.trace cluster, telemetry)

let run_trial ?spec ?retry ?policy ?crash_ranks ?watchdog ?topology ~workload
    ~seed ~index () =
  let trial, _, _ =
    run_trial_impl ?spec ?retry ?policy ?crash_ranks ?watchdog ?topology
      ~base:(trial_base ?topology workload) ~seed ~index ()
  in
  trial

let profile_trial ?spec ?retry ?policy ?crash_ranks ?watchdog ?topology
    ~workload ~seed ~index () =
  run_trial_impl ?spec ?retry ?policy ?crash_ranks ?watchdog ?topology
    ~profile:true ~base:(trial_base ?topology workload) ~seed ~index ()

let summarize ~workload ~seed trials =
  let count c =
    List.length (List.filter (fun t -> t.classification = c) trials)
  in
  {
    s_workload = workload;
    s_seed = seed;
    s_trials = trials;
    s_clean = count Clean;
    s_recovered = count Recovered;
    s_failed_over = count Failed_over;
    s_degraded = count Degraded;
    s_stalled = count Stalled;
    s_recovery_latencies =
      List.concat_map
        (fun t -> List.map snd t.recovered_signals)
        trials;
    s_failover_latencies =
      List.concat_map
        (fun t -> List.map snd t.failed_over_ranks)
        trials;
    s_overlap_efficiency =
      Stats.mean (List.map (fun t -> t.overlap_efficiency) trials);
    s_recovery_overhead_us =
      List.fold_left (fun acc t -> acc +. t.recovery_overhead_us) 0.0 trials;
    s_topology =
      (match trials with [] -> None | t :: _ -> t.topology);
    s_cross_island_replays =
      List.fold_left (fun acc t -> acc + t.cross_island_replays) 0 trials;
  }

let run_trials ?pool ?spec ?retry ?policy ?crash_ranks ?watchdog ?topology
    ~workload ~seed ~trials () =
  if trials <= 0 then invalid_arg "Harness.run_trials: trials must be > 0";
  let base = trial_base ?topology workload in
  let indices = List.init trials Fun.id in
  let results =
    Pool.map pool
      (fun index ->
        let trial, _, _ =
          run_trial_impl ?spec ?retry ?policy ?crash_ranks ?watchdog ?topology
            ~base ~seed ~index ()
        in
        trial)
      indices
  in
  summarize ~workload ~seed (List.map Pool.get results)

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

module Json = Obs.Json

let trial_to_json t =
  let stall =
    match t.stall with
    | None -> Json.Null
    | Some s ->
      Json.Obj
        ([
           ("key", Json.Str s.si_key);
           ("kind", Json.Str s.si_kind);
           ("owner_rank", Json.Num (float_of_int s.si_owner));
           ("waiter_rank", Json.Num (float_of_int s.si_rank));
         ]
        @ (match s.si_channel with
          | Some c -> [ ("channel", Json.Num (float_of_int c)) ]
          | None -> [])
        @
        match s.si_tile_rows with
        | Some (lo, hi) ->
          [
            ("tile_row_lo", Json.Num (float_of_int lo));
            ("tile_row_hi", Json.Num (float_of_int hi));
          ]
        | None -> [])
  in
  Json.Obj
    ([
      ("index", Json.Num (float_of_int t.index));
      ("seed", Json.Num (float_of_int t.trial_seed));
      ("classification", Json.Str (classification_to_string t.classification));
      ("ideal_us", Json.Num t.ideal_us);
      ("makespan_us", Json.Num t.makespan_us);
      ("fallback_us", Json.Num t.fallback_us);
      ("total_us", Json.Num t.total_us);
      ("achieved_overlap", Json.Num t.achieved_overlap);
      ("overlap_efficiency", Json.Num t.overlap_efficiency);
      ("recovery_overhead_us", Json.Num t.recovery_overhead_us);
      ("numerics_ok", Json.Bool t.numerics_ok);
      ("retries", Json.Num (float_of_int t.retries));
      ( "recovered",
        Json.List
          (List.map
             (fun (key, latency) ->
               Json.Obj
                 [ ("key", Json.Str key); ("latency_us", Json.Num latency) ])
             t.recovered_signals) );
      ("degraded", Json.List (List.map (fun k -> Json.Str k) t.degraded_keys));
      ( "faults",
        Json.List
          (List.map
             (fun (kind, subject) ->
               Json.Obj
                 [ ("kind", Json.Str kind); ("subject", Json.Str subject) ])
             t.faults) );
      ("stall", stall);
    ]
    @
    (* Failover fields only exist when the trial tracked a ledger
       (crashes planned) — crash-free summary JSON stays byte-identical
       to pre-failover output. *)
    (if t.total_tiles = 0 && t.failed_over_ranks = [] then []
     else
       [
         ( "failed_over",
           Json.List
             (List.map
                (fun (rank, latency) ->
                  Json.Obj
                    [
                      ("rank", Json.Num (float_of_int rank));
                      ("latency_us", Json.Num latency);
                    ])
                t.failed_over_ranks) );
         ("remapped_tiles", Json.Num (float_of_int t.remapped_tiles));
         ("replayed_tiles", Json.Num (float_of_int t.replayed_tiles));
         ("total_tiles", Json.Num (float_of_int t.total_tiles));
       ])
    @
    (* Topology fields only exist on topology trials — flat output
       (including flat crash trials) stays byte-identical. *)
    (match t.topology with
    | None -> []
    | Some name ->
      [
        ("topology", Json.Str name);
        ( "cross_island_replays",
          Json.Num (float_of_int t.cross_island_replays) );
      ]))

let summary_to_json s =
  let percentiles latencies =
    let latencies = List.sort compare latencies in
    let pct p =
      if latencies = [] then Json.Null
      else Json.Num (Stats.percentile p latencies)
    in
    Json.Obj
      [
        ("count", Json.Num (float_of_int (List.length latencies)));
        ("p50", pct 50.0);
        ("p95", pct 95.0);
        ("p99", pct 99.0);
      ]
  in
  (* Gate the failover fields exactly like the per-trial export: only
     summaries that contain crash data mention failover at all. *)
  let crashy =
    List.exists
      (fun t -> t.total_tiles > 0 || t.failed_over_ranks <> [])
      s.s_trials
  in
  Json.Obj
    ([
       ("workload", Json.Str (workload_to_string s.s_workload));
       ("seed", Json.Num (float_of_int s.s_seed));
       ("trials", Json.Num (float_of_int (List.length s.s_trials)));
       ( "classification",
         Json.Obj
           ([
              ("clean", Json.Num (float_of_int s.s_clean));
              ("recovered", Json.Num (float_of_int s.s_recovered));
            ]
           @ (if crashy then
                [ ("failed_over", Json.Num (float_of_int s.s_failed_over)) ]
              else [])
           @ [
               ("degraded", Json.Num (float_of_int s.s_degraded));
               ("stalled", Json.Num (float_of_int s.s_stalled));
             ]) );
       ("recovery_latency_us", percentiles s.s_recovery_latencies);
       ("overlap_efficiency", Json.Num s.s_overlap_efficiency);
       ("recovery_overhead_us", Json.Num s.s_recovery_overhead_us);
     ]
    @ (if crashy then
         [ ("failover_latency_us", percentiles s.s_failover_latencies) ]
       else [])
    @ (match s.s_topology with
      | None -> []
      | Some name ->
        [
          ("topology", Json.Str name);
          ( "cross_island_replays",
            Json.Num (float_of_int s.s_cross_island_replays) );
        ])
    @ [ ("trial_results", Json.List (List.map trial_to_json s.s_trials)) ])

let summary_to_string s = Json.to_string ~indent:true (summary_to_json s)
