(* Chaos subsystem tests: seeded schedules are deterministic,
   timing-only faults never change results, dropped signals are either
   retried to a numerically identical completion, degraded to the
   non-overlapped fallback, or named exactly in a structured Stall —
   across both the MLP and MoE workloads. *)

open Tilelink_core
open Tilelink_machine
open Tilelink_workloads
module Chaos = Tilelink_core.Chaos
module Harness = Tilelink_chaos.Harness
module Pool = Tilelink_exec.Pool
module Check = Tilelink_tensor.Check

(* ------------------------------------------------------------------ *)
(* PRNG and schedule determinism                                       *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Chaos.Prng.create ~seed:5 and b = Chaos.Prng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Chaos.Prng.next a)
      (Chaos.Prng.next b)
  done;
  let c = Chaos.Prng.create ~seed:6 in
  Alcotest.(check bool) "different seed, different stream" true
    (Chaos.Prng.next a <> Chaos.Prng.next c)

let test_prng_float_range () =
  let r = Chaos.Prng.create ~seed:17 in
  for _ = 1 to 1000 do
    let x = Chaos.Prng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_plan_deterministic () =
  let p () = Chaos.plan ~seed:42 ~world_size:8 () in
  Alcotest.(check (list (pair string string)))
    "same seed, same schedule"
    (Chaos.injected (p ()))
    (Chaos.injected (p ()));
  Alcotest.(check bool) "different seed, different schedule" true
    (Chaos.injected (Chaos.plan ~seed:43 ~world_size:8 ())
    <> Chaos.injected (p ()))

let test_derive_seed_stable () =
  Alcotest.(check int) "stable sub-seed"
    (Chaos.derive_seed ~seed:42 ~index:3)
    (Chaos.derive_seed ~seed:42 ~index:3);
  Alcotest.(check bool) "index changes sub-seed" true
    (Chaos.derive_seed ~seed:42 ~index:3 <> Chaos.derive_seed ~seed:42 ~index:4)

(* ------------------------------------------------------------------ *)
(* Timing-only faults never change results                             *)
(* ------------------------------------------------------------------ *)

(* Stragglers, link windows and copy stalls reshape the timeline but
   carry no data effect, so every trial must validate bit-for-bit
   against the reference no matter the seed. *)
let timing_only_spec =
  {
    (Chaos.default_spec) with
    Chaos.drop_prob = 0.0;
    duplicate_prob = 0.0;
    delay_prob = 0.0;
  }

let timing_only_prop workload seed =
  let t =
    Chaos_trial.run ~spec:timing_only_spec ~workload ~seed ~index:0 ()
  in
  t.Harness.numerics_ok
  && t.Harness.classification = Harness.Clean
  && t.Harness.retries = 0

let prop_mlp_timing_faults_preserve_results =
  QCheck.Test.make ~name:"mlp: stragglers/link windows preserve results"
    ~count:5
    QCheck.(int_range 0 10_000)
    (timing_only_prop Harness.Mlp_ag_gemm)

let prop_moe_timing_faults_preserve_results =
  QCheck.Test.make ~name:"moe: stragglers/link windows preserve results"
    ~count:3
    QCheck.(int_range 0 10_000)
    (timing_only_prop Harness.Moe_part2)

(* Signal delays (delivery rescheduled later) are also timing-only. *)
let delay_only_spec =
  {
    (Chaos.no_machine_faults Chaos.default_spec) with
    Chaos.delay_prob = 0.5;
    delay_us = 30.0;
  }

let prop_delayed_signals_preserve_results =
  QCheck.Test.make ~name:"mlp: delayed signals preserve results" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let t =
        Chaos_trial.run ~spec:delay_only_spec ~workload:Harness.Mlp_ag_gemm
          ~seed ~index:0 ()
      in
      t.Harness.numerics_ok && t.Harness.classification <> Harness.Stalled)

(* ------------------------------------------------------------------ *)
(* Dropped notifies: retry, stall, degrade                             *)
(* ------------------------------------------------------------------ *)

let drop_spec =
  {
    (Chaos.no_machine_faults Chaos.default_spec) with
    drop_prob = 0.25;
    duplicate_prob = 0.0;
    delay_prob = 0.0;
    reissue_drop_prob = 0.0;
  }

(* Find a trial index where a dropped signal actually left a wait
   hanging (classified Recovered under the default retry policy).  A
   drop can be masked when a later notify raises the same key past the
   blocked threshold, so scanning on the injection log alone is not
   enough — the stall/degrade tests below replay the exact same
   schedule with recovery restricted. *)
let find_recovered_trial workload ~seed =
  let rec go index =
    if index > 20 then
      Alcotest.fail "no recovered trial in 20 seeded attempts"
    else
      let t =
        Chaos_trial.run ~spec:drop_spec ~workload ~seed ~index ()
      in
      if t.Harness.classification = Harness.Recovered then (index, t)
      else go (index + 1)
  in
  go 0

let dropped_keys t =
  List.filter_map
    (fun (kind, subject) -> if kind = "drop" then Some subject else None)
    t.Harness.faults

let test_drop_retry_recovers workload () =
  let _, t = find_recovered_trial workload ~seed:101 in
  Alcotest.(check bool) "numerics identical to fault-free run" true
    t.Harness.numerics_ok;
  Alcotest.(check bool) "a signal was dropped" true (dropped_keys t <> []);
  Alcotest.(check bool) "watchdog retried" true (t.Harness.retries > 0);
  Alcotest.(check bool) "recovery latency recorded" true
    (List.for_all (fun (_, l) -> l > 0.0) t.Harness.recovered_signals
    && t.Harness.recovered_signals <> [])

let test_no_retry_stall_names_signal workload () =
  let index, with_retry = find_recovered_trial workload ~seed:101 in
  let t =
    Chaos_trial.run ~spec:drop_spec ~retry:false ~policy:Chaos.Fail_stop
      ~workload ~seed:101 ~index ()
  in
  Alcotest.(check bool) "classified stalled" true
    (t.Harness.classification = Harness.Stalled);
  Alcotest.(check bool) "numerics not validated" false t.Harness.numerics_ok;
  match t.Harness.stall with
  | None -> Alcotest.fail "stalled trial carries no stall info"
  | Some s ->
    Alcotest.(check bool) "stall names a dropped signal" true
      (List.mem s.Harness.si_key (dropped_keys with_retry));
    let kind, owner, channel = Chaos.parse_key s.Harness.si_key in
    Alcotest.(check string) "kind parsed" kind s.Harness.si_kind;
    Alcotest.(check int) "producer rank parsed" owner s.Harness.si_owner;
    Alcotest.(check bool) "channel parsed" true
      (channel = s.Harness.si_channel);
    if s.Harness.si_kind = "pc" then
      Alcotest.(check bool) "pc stall maps to tile rows" true
        (s.Harness.si_tile_rows <> None)

let test_degrade_fallback workload () =
  let index, _ = find_recovered_trial workload ~seed:101 in
  let t =
    Chaos_trial.run ~spec:drop_spec ~retry:false ~policy:Chaos.Degrade
      ~workload ~seed:101 ~index ()
  in
  Alcotest.(check bool) "classified degraded" true
    (t.Harness.classification = Harness.Degraded);
  Alcotest.(check bool) "force-released keys recorded" true
    (t.Harness.degraded_keys <> []);
  Alcotest.(check bool) "achieved overlap < 1" true
    (t.Harness.achieved_overlap < 1.0);
  Alcotest.(check bool) "fallback cost charged" true
    (t.Harness.fallback_us > 0.0);
  Alcotest.(check bool) "numerics restored by fallback" true
    t.Harness.numerics_ok

(* ------------------------------------------------------------------ *)
(* Crash failover                                                      *)
(* ------------------------------------------------------------------ *)

(* One forced permanent crash mid-kernel: the trial must complete as
   Failed_over with bit-identical numerics, and the ledger must show a
   genuine partial replay — strictly fewer tiles re-executed than the
   program holds (the checkpointed majority was not redone). *)
let test_failover_recovers workload () =
  let t = Chaos_trial.run ~crash_ranks:1 ~workload ~seed:42 ~index:0 () in
  Alcotest.(check bool) "classified failed_over" true
    (t.Harness.classification = Harness.Failed_over);
  Alcotest.(check bool) "numerics identical to fault-free run" true
    t.Harness.numerics_ok;
  Alcotest.(check bool) "one rank crashed" true
    (List.length t.Harness.failed_over_ranks = 1);
  Alcotest.(check bool) "recovery latency positive" true
    (List.for_all (fun (_, l) -> l > 0.0) t.Harness.failed_over_ranks);
  Alcotest.(check bool) "some tiles replayed" true
    (t.Harness.replayed_tiles > 0);
  Alcotest.(check bool) "replay is partial (ledger checkpoint held)" true
    (t.Harness.replayed_tiles < t.Harness.total_tiles);
  Alcotest.(check int) "remapped = replayed" t.Harness.remapped_tiles
    t.Harness.replayed_tiles;
  Alcotest.(check bool) "crash recorded in the injection log" true
    (List.exists (fun (kind, _) -> kind = "rank_crash") t.Harness.faults)

(* Crashing every rank leaves nobody to fail over to: the coordinator
   must triage this as a structural stall naming the unrecoverable
   channel — never a hang or a bare deadlock. *)
let test_no_survivors_structural_stall () =
  let t =
    Chaos_trial.run ~crash_ranks:2 ~workload:Harness.Attention_ag ~seed:42
      ~index:0 ()
  in
  Alcotest.(check bool) "classified stalled" true
    (t.Harness.classification = Harness.Stalled);
  match t.Harness.stall with
  | None -> Alcotest.fail "no-survivor crash carries no stall info"
  | Some s ->
    Alcotest.(check bool) "stall names a channel key" true
      (s.Harness.si_key <> "");
    let kind, owner, _ = Chaos.parse_key s.Harness.si_key in
    Alcotest.(check string) "kind parsed" kind s.Harness.si_kind;
    Alcotest.(check int) "owner parsed" owner s.Harness.si_owner

(* The coordinator's no-survivor stall goes through the same stall
   path as the watchdog's: under full telemetry it is journaled and
   counted in the [recovery.stalls] metric, exactly once. *)
let test_no_survivors_stall_counted () =
  let t, _, telemetry =
    Harness.profile_trial ~crash_ranks:2 ~workload:Harness.Attention_ag
      ~seed:42 ~index:0 ()
  in
  Alcotest.(check bool) "classified stalled" true
    (t.Harness.classification = Harness.Stalled);
  Alcotest.(check (option int)) "recovery.stalls counted once" (Some 1)
    (Harness.Obs.Metrics.counter_value
       (Harness.Obs.Telemetry.metrics telemetry)
       "recovery.stalls");
  Alcotest.(check int) "one Stall_detected journaled" 1
    (List.length
       (List.filter
          (fun (e : Harness.Obs.Journal.entry) ->
            match e.Harness.Obs.Journal.event with
            | Harness.Obs.Journal.Stall_detected _ -> true
            | _ -> false)
          (Harness.Obs.Journal.entries
             (Harness.Obs.Telemetry.journal telemetry))))

(* Teardown regression: a sweep whose early trial stalls (poisoned
   cluster state, watchdog mid-flight) must leave later trials exactly
   as they would be when run fresh in isolation. *)
let test_stalled_trial_does_not_leak () =
  let spec = drop_spec in
  let stalled_index, _ = find_recovered_trial Harness.Mlp_ag_gemm ~seed:101 in
  let sweep =
    Harness.run_trials ~spec ~retry:false ~policy:Chaos.Fail_stop
      ~workload:Harness.Mlp_ag_gemm ~seed:101
      ~trials:(stalled_index + 2)
      ()
  in
  Alcotest.(check bool) "sweep contains a stalled trial" true
    (sweep.Harness.s_stalled > 0);
  let fresh =
    Chaos_trial.run ~spec ~retry:false ~policy:Chaos.Fail_stop
      ~workload:Harness.Mlp_ag_gemm ~seed:101 ~index:(stalled_index + 1) ()
  in
  let in_sweep =
    List.nth sweep.Harness.s_trials (stalled_index + 1)
  in
  Alcotest.(check string) "post-stall trial identical to a fresh run"
    (Harness.Obs.Json.to_string ~indent:true (Harness.trial_to_json fresh))
    (Harness.Obs.Json.to_string ~indent:true (Harness.trial_to_json in_sweep))

(* Same (seed, crash spec) must reproduce the summary JSON byte for
   byte, crashes included. *)
let prop_crash_summary_deterministic =
  QCheck.Test.make ~name:"crash trials: summary JSON reproducible" ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let run () =
        Harness.summary_to_string
          (Harness.run_trials ~crash_ranks:1 ~workload:Harness.Mlp_ag_gemm
             ~seed ~trials:2 ())
      in
      run () = run ())

(* Crash-free summaries must not even mention failover — the JSON stays
   byte-identical to pre-failover output, protecting the --check
   contract of existing seeds. *)
let test_crash_free_summary_unchanged () =
  let json =
    Harness.summary_to_string
      (Harness.run_trials ~workload:Harness.Mlp_ag_gemm ~seed:42 ~trials:3 ())
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json
      && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "no failed_over key" false (contains "failed_over");
  Alcotest.(check bool) "no failover_latency_us key" false
    (contains "failover_latency_us");
  Alcotest.(check bool) "no total_tiles key" false (contains "total_tiles")

(* A second crash landing squarely mid-replay of the first: the
   re-entrant coordinator must detect it on a later watchdog tick,
   re-enter failover (remapping the second dead rank over the
   remaining survivors), and finish the run with bit-identical
   numerics.  The historical failure mode was the coordinator wedging
   in its replay join and the run dying as Engine.Deadlock — which
   lib/serve/batcher.ml then had to accept as an outcome. *)
let test_second_crash_mid_replay () =
  let spec = { Mlp.m = 16; k = 4; n = 6; world_size = 4 } in
  let config =
    {
      Design_space.comm_tile = (2, 128);
      compute_tile = (2, 2);
      comm_order = Tile.Ring_from_self { segments = 4 };
      compute_order = Tile.Ring_from_self { segments = 4 };
      binding = Design_space.Comm_on_sm 1;
      stages = 2;
      micro_block = 0;
    }
  in
  let build () =
    Mlp.ag_gemm_program ~config spec ~spec_gpu:Calib.test_machine
  in
  let ideal =
    let cluster = Cluster.create Calib.test_machine ~world_size:4 in
    (Runtime.run cluster (build ())).Runtime.makespan
  in
  (* First crash at 30% of the fault-free makespan; the watchdog ticks
     every ideal/50, so replay of the first crash starts within one
     tick — the second crash 2.5 ticks later is guaranteed to land
     while that replay is still in flight (it spans many ticks). *)
  let poll = ideal /. 50.0 in
  let t1 = 0.3 *. ideal in
  let t2 = t1 +. (2.5 *. poll) in
  let quiet =
    {
      (Chaos.no_machine_faults Chaos.default_spec) with
      Chaos.drop_prob = 0.0;
      duplicate_prob = 0.0;
      delay_prob = 0.0;
    }
  in
  let schedule =
    Chaos.with_crashes
      (Chaos.plan ~spec:quiet ~horizon_us:(2.0 *. ideal) ~seed:7
         ~world_size:4 ())
      [
        (0, { Chaos.cr_at = t1 });
        (1, { Chaos.cr_at = t2 });
      ]
  in
  let watchdog =
    {
      Chaos.poll_interval_us = poll;
      wait_timeout_us = 2.0 *. ideal;
      stall_timeout_us = 8.0 *. ideal;
      max_retries = 5;
      backoff_base_us = ideal /. 10.0;
      retry = true;
      policy = Chaos.Failover;
    }
  in
  let control = Chaos.control ~schedule ~watchdog () in
  let memory = Mlp.ag_gemm_alloc spec ~seed:11 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let telemetry = Harness.Obs.Telemetry.create () in
  let result =
    Runtime.run ~telemetry ~data:true ~memory ~chaos:control ~rebuild:build
      cluster (build ())
  in
  Alcotest.(check bool) "run outlives the fault-free makespan" true
    (result.Runtime.makespan > ideal);
  let rec_ = control.Chaos.c_recovery in
  Alcotest.(check int) "both crashes failed over"
    2
    (List.length rec_.Chaos.failed_over);
  Alcotest.(check bool) "recovery latencies positive" true
    (List.for_all (fun (_, l) -> l > 0.0) rec_.Chaos.failed_over);
  Alcotest.(check bool) "tiles were replayed" true
    (rec_.Chaos.replayed_tiles > 0);
  Alcotest.(check (list int)) "no structural stalls" []
    (List.map (fun s -> s.Chaos.stall_owner) rec_.Chaos.stalls);
  (* The journal must prove the scenario: the second crash recorded
     after the first remap and before the first resume — i.e. truly
     mid-replay, not merely after it. *)
  let events =
    List.map
      (fun (e : Harness.Obs.Journal.entry) -> e.Harness.Obs.Journal.event)
      (Harness.Obs.Journal.entries (Harness.Obs.Telemetry.journal telemetry))
  in
  let index_of p =
    let rec go i = function
      | [] -> Alcotest.fail "expected journal event missing"
      | e :: rest -> if p e then i else go (i + 1) rest
    in
    go 0 events
  in
  let remap0 =
    index_of (function
      | Harness.Obs.Journal.Remapped { rank = 0; _ } -> true
      | _ -> false)
  in
  let crash1 =
    index_of (function
      | Harness.Obs.Journal.Rank_crashed { rank = 1; _ } -> true
      | _ -> false)
  in
  let resume0 =
    index_of (function
      | Harness.Obs.Journal.Resumed { rank = 0; _ } -> true
      | _ -> false)
  in
  Alcotest.(check bool) "second crash lands after the first remap" true
    (crash1 > remap0);
  Alcotest.(check bool) "second crash lands before the first resume" true
    (crash1 < resume0);
  (* And the data must still be exactly right on every rank, the two
     dead ones (reconstructed by replay) included. *)
  List.iter
    (fun rank ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d numerics intact" rank)
        true
        (Check.close
           (Mlp.ag_gemm_reference memory spec ~rank)
           (Memory.find memory ~rank ~name:"y")))
    [ 0; 1; 2; 3 ]

(* Expert-parallel MoE labels its FFN tiles [ffn[e,t]] on every
   expert-owning rank, so task labels repeat within a program.  A
   replay must take the lost task at its own position: each of these
   single crashes must fail over once and leave every rank's output
   equal to the reference. *)
let test_ep_moe_crash_replays_by_position () =
  let spec =
    {
      Ep_moe.tokens = 32;
      hidden = 4;
      intermediate = 6;
      experts = 8;
      topk = 2;
      world_size = 4;
    }
  in
  let route = Ep_moe.routing spec ~seed:13 in
  let build () =
    Ep_moe.program
      ~config:{ Ep_moe.tile_rows = 2; comm_binding = Design_space.Comm_on_dma }
      spec route ~spec_gpu:Calib.test_machine
  in
  let ideal =
    (Runtime.run (Cluster.create Calib.test_machine ~world_size:4) (build ()))
      .Runtime.makespan
  in
  let quiet =
    {
      (Chaos.no_machine_faults Chaos.default_spec) with
      Chaos.drop_prob = 0.0;
      duplicate_prob = 0.0;
      delay_prob = 0.0;
    }
  in
  let crash ~rebuild (dead, frac) =
    let schedule =
      Chaos.with_crashes
        (Chaos.plan ~spec:quiet ~horizon_us:(2.0 *. ideal) ~seed:7
           ~world_size:4 ())
        [ (dead, { Chaos.cr_at = frac *. ideal }) ]
    in
    let control =
      Chaos.control ~schedule
        ~watchdog:{ Chaos.default_watchdog with policy = Chaos.Failover }
        ()
    in
    let memory, _ = Ep_moe.alloc spec route ~seed:19 in
    ignore
      (Runtime.run ~data:true ~memory ~chaos:control ~rebuild
         (Cluster.create Calib.test_machine ~world_size:4)
         (build ()));
    (control, memory)
  in
  List.iter
    (fun (dead, frac) ->
      let msg = Printf.sprintf "rank %d dies at %.1fx" dead frac in
      let control, memory = crash ~rebuild:build (dead, frac) in
      Alcotest.(check int) (msg ^ ": failed over once") 1
        (List.length control.Chaos.c_recovery.Chaos.failed_over);
      for rank = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: rank %d output" msg rank)
          true
          (Check.close
             (Ep_moe.reference memory spec route ~rank)
             (Memory.find memory ~rank ~name:"out"))
      done)
    [ (0, 0.3); (1, 0.3); (2, 0.3); (3, 0.3); (1, 0.1); (2, 0.5); (0, 0.6) ];
  (* A rebuild missing a task has no task at some lost position. *)
  let truncated () =
    let p = build () in
    let plans = Array.copy p.Program.plans in
    plans.(1) <-
      List.map
        (fun (r : Program.role) ->
          { r with Program.tasks = List.tl r.Program.tasks })
        plans.(1);
    { p with Program.plans }
  in
  Alcotest.(check bool) "a rebuild of another shape is refused" true
    (try
       ignore (crash ~rebuild:truncated (1, 0.3));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Summary determinism                                                 *)
(* ------------------------------------------------------------------ *)

let test_summary_reproducible () =
  let run () =
    Harness.summary_to_string
      (Harness.run_trials ~workload:Harness.Mlp_ag_gemm ~seed:42 ~trials:3 ())
  in
  Alcotest.(check string) "byte-identical summary JSON" (run ()) (run ())

let test_summary_counts () =
  let s =
    Harness.run_trials ~spec:drop_spec ~workload:Harness.Mlp_ag_gemm ~seed:101
      ~trials:4 ()
  in
  Alcotest.(check int) "classes partition the trials" 4
    (s.Harness.s_clean + s.Harness.s_recovered + s.Harness.s_failed_over
   + s.Harness.s_degraded + s.Harness.s_stalled);
  Alcotest.(check int) "trials retained in order" 4
    (List.length s.Harness.s_trials);
  List.iteri
    (fun i t -> Alcotest.(check int) "index" i t.Harness.index)
    s.Harness.s_trials

(* ------------------------------------------------------------------ *)
(* Program-level fault transforms                                      *)
(* ------------------------------------------------------------------ *)

let small_mlp = { Mlp.m = 16; k = 4; n = 6; world_size = 4 }

let small_config =
  let ring = Tile.Ring_from_self { segments = 4 } in
  {
    Design_space.comm_tile = (2, 128);
    compute_tile = (2, 2);
    comm_order = ring;
    compute_order = ring;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

let run_small program =
  let memory = Mlp.ag_gemm_alloc small_mlp ~seed:11 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  ignore (Runtime.run ~data:true ~memory cluster program);
  memory

let check_small memory =
  List.for_all
    (fun rank ->
      Check.close
        (Mlp.ag_gemm_reference memory small_mlp ~rank)
        (Memory.find memory ~rank ~name:"y"))
    [ 0; 1; 2; 3 ]

let test_duplicate_notify_harmless () =
  let program = Mlp.ag_gemm_program ~config:small_config small_mlp
      ~spec_gpu:Calib.test_machine
  in
  let doubled = Fault.duplicate_notify program ~rank:1 ~nth:0 in
  Alcotest.(check int) "one extra notify"
    (Fault.count_notifies program ~rank:1 + 1)
    (Fault.count_notifies doubled ~rank:1);
  Alcotest.(check bool) "duplicate notify keeps results" true
    (check_small (run_small doubled))

let test_reorder_notifies_harmless () =
  let program = Mlp.ag_gemm_program ~config:small_config small_mlp
      ~spec_gpu:Calib.test_machine
  in
  let swapped = Fault.reorder_notifies program ~rank:2 ~nth:0 in
  Alcotest.(check int) "notify count unchanged"
    (Fault.count_notifies program ~rank:2)
    (Fault.count_notifies swapped ~rank:2);
  Alcotest.(check bool) "adjacent notify reorder keeps results" true
    (check_small (run_small swapped))

let test_reorder_notifies_out_of_range () =
  let program = Mlp.ag_gemm_program ~config:small_config small_mlp
      ~spec_gpu:Calib.test_machine
  in
  let n = Fault.count_notifies program ~rank:0 in
  Alcotest.check_raises "needs a successor notify"
    (Invalid_argument "Fault.reorder_notifies: nth out of range")
    (fun () -> ignore (Fault.reorder_notifies program ~rank:0 ~nth:(n - 1)))

(* ------------------------------------------------------------------ *)
(* Enriched deadlock diagnostics                                       *)
(* ------------------------------------------------------------------ *)

let test_deadlock_message_enriched () =
  let program = Mlp.ag_gemm_program ~config:small_config small_mlp
      ~spec_gpu:Calib.test_machine
  in
  let broken = Fault.drop_notify program ~rank:1 ~nth:0 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  match Runtime.run cluster broken with
  | _ -> Alcotest.fail "dropped notify should deadlock without a watchdog"
  | exception Tilelink_sim.Engine.Deadlock msg ->
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "lists pending waiters" true
      (contains "pending waiters");
    Alcotest.(check bool) "names a blocked wait edge" true (contains "waits")

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "chaos"
    [
      ( "prng",
        [
          Alcotest.test_case "prng deterministic" `Quick
            test_prng_deterministic;
          Alcotest.test_case "prng float range" `Quick test_prng_float_range;
          Alcotest.test_case "plan deterministic" `Quick
            test_plan_deterministic;
          Alcotest.test_case "derive_seed stable" `Quick
            test_derive_seed_stable;
        ] );
      ( "timing-faults",
        [
          qc prop_mlp_timing_faults_preserve_results;
          qc prop_moe_timing_faults_preserve_results;
          qc prop_delayed_signals_preserve_results;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "mlp: drop + retry recovers" `Quick
            (test_drop_retry_recovers Harness.Mlp_ag_gemm);
          Alcotest.test_case "moe: drop + retry recovers" `Quick
            (test_drop_retry_recovers Harness.Moe_part2);
          Alcotest.test_case "mlp: no-retry stall names signal" `Quick
            (test_no_retry_stall_names_signal Harness.Mlp_ag_gemm);
          Alcotest.test_case "moe: no-retry stall names signal" `Quick
            (test_no_retry_stall_names_signal Harness.Moe_part2);
          Alcotest.test_case "mlp: degrade falls back" `Quick
            (test_degrade_fallback Harness.Mlp_ag_gemm);
          Alcotest.test_case "moe: degrade falls back" `Quick
            (test_degrade_fallback Harness.Moe_part2);
        ] );
      ( "failover",
        [
          Alcotest.test_case "mlp: crash fails over, numerics intact" `Quick
            (test_failover_recovers Harness.Mlp_ag_gemm);
          Alcotest.test_case "moe: crash fails over, numerics intact" `Quick
            (test_failover_recovers Harness.Moe_part2);
          Alcotest.test_case "attention: crash fails over, numerics intact"
            `Quick
            (test_failover_recovers Harness.Attention_ag);
          Alcotest.test_case "no survivors: structural stall" `Quick
            test_no_survivors_structural_stall;
          Alcotest.test_case "no survivors: stall counted" `Quick
            test_no_survivors_stall_counted;
          Alcotest.test_case "second crash mid-replay re-enters failover"
            `Quick test_second_crash_mid_replay;
          Alcotest.test_case "ep_moe: crash replays tasks by position" `Quick
            test_ep_moe_crash_replays_by_position;
          Alcotest.test_case "stalled trial does not leak state" `Quick
            test_stalled_trial_does_not_leak;
          qc prop_crash_summary_deterministic;
          Alcotest.test_case "crash-free summary unchanged" `Quick
            test_crash_free_summary_unchanged;
        ] );
      ( "summary",
        [
          Alcotest.test_case "summary reproducible" `Quick
            test_summary_reproducible;
          Alcotest.test_case "summary counts" `Quick test_summary_counts;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "duplicate notify harmless" `Quick
            test_duplicate_notify_harmless;
          Alcotest.test_case "reorder notifies harmless" `Quick
            test_reorder_notifies_harmless;
          Alcotest.test_case "reorder out of range" `Quick
            test_reorder_notifies_out_of_range;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "deadlock message enriched" `Quick
            test_deadlock_message_enriched;
        ] );
    ]
