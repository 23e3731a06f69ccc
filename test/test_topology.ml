(* Topology subsystem tests: preset resolution and layout geometry,
   heterogeneous scale factors, the seeded co-tenant NIC tax,
   topology-threaded failover (bit-identical numerics on hetero16
   across every workload), and the partition triage paths — an
   island-wide crash behind a NIC cut must become a structural
   "partition" stall naming the cut, and a crash with no survivors at
   all must stay a structural stall, never a hang. *)

open Tilelink_core
open Tilelink_machine
open Tilelink_workloads
module Chaos = Tilelink_core.Chaos
module Harness = Tilelink_chaos.Harness

(* ------------------------------------------------------------------ *)
(* Presets and layout geometry                                         *)
(* ------------------------------------------------------------------ *)

let test_preset_resolution () =
  Alcotest.(check int) "five shipped presets" 5 (List.length Topology.all);
  List.iter
    (fun topo ->
      match Topology.of_string (Topology.name topo) with
      | Ok t -> Alcotest.(check string) "roundtrip" (Topology.name topo)
                  (Topology.name t)
      | Error e -> Alcotest.fail e)
    Topology.all;
  (match Topology.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus preset resolved"
  | Error msg ->
    (* The error doubles as the usage hint: it must name the presets. *)
    List.iter
      (fun name ->
        let n = String.length name in
        let rec go i =
          i + n <= String.length msg
          && (String.sub msg i n = name || go (i + 1))
        in
        Alcotest.(check bool)
          (Printf.sprintf "hint names %s" name)
          true (go 0))
      (Topology.names ()));
  Alcotest.(check (list int))
    "natural worlds"
    [ 8; 16; 32; 16; 16 ]
    (List.map Topology.natural_world Topology.all);
  Alcotest.(check bool) "flat8 is flat" true (Topology.is_flat Topology.flat8);
  Alcotest.(check bool) "hetero16 is not flat" false
    (Topology.is_flat Topology.hetero16);
  Alcotest.(check bool) "cotenant2x8 is not flat" false
    (Topology.is_flat Topology.cotenant2x8)

let test_layout_island_mapping () =
  let l = Topology.layout Topology.islands2x8 ~world_size:16 in
  Alcotest.(check int) "two islands" 2 (Topology.islands l);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "rank %d island" r)
        (r / 8)
        (Topology.island_of l r))
    (List.init 16 Fun.id);
  let flat = Topology.layout Topology.flat8 ~world_size:8 in
  Alcotest.(check int) "flat: one island" 1 (Topology.islands flat);
  Alcotest.(check bool) "flat: no NIC tax" true (flat.Topology.l_nic_tax = None)

let test_hetero_scale_factors () =
  let l = Topology.layout Topology.hetero16 ~world_size:16 in
  let compute = Array.to_list l.Topology.l_compute_scale in
  let link = Array.to_list l.Topology.l_link_scale in
  Alcotest.(check int) "per-rank compute scales" 16 (List.length compute);
  Alcotest.(check bool) "compute scales >= 1" true
    (List.for_all (fun s -> s >= 1.0) compute);
  Alcotest.(check bool) "some ranks straggle" true
    (List.exists (fun s -> s > 1.0) compute);
  Alcotest.(check bool) "link scales in (0, 1]" true
    (List.for_all (fun s -> s > 0.0 && s <= 1.0) link);
  Alcotest.(check bool) "some links degraded" true
    (List.exists (fun s -> s < 1.0) link)

let test_cotenant_tax_seeded () =
  let l = Topology.layout Topology.cotenant2x8 ~world_size:16 in
  match l.Topology.l_nic_tax with
  | None -> Alcotest.fail "cotenant topology carries no NIC tax"
  | Some tax ->
    (* Pure in (island, now): replaying the same instant must yield the
       same rate, and every draw must stay inside the documented band. *)
    List.iter
      (fun now ->
        List.iter
          (fun island ->
            let a = tax ~island ~now and b = tax ~island ~now in
            Alcotest.(check (float 0.0)) "tax pure in (island, now)" a b;
            Alcotest.(check bool) "tax in [0.45, 1.0]" true
              (a >= 0.45 && a <= 1.0))
          [ 0; 1 ])
      [ 0.0; 17.0; 49.9; 50.1; 123.4; 999.0 ]

(* ------------------------------------------------------------------ *)
(* Topology-threaded failover                                          *)
(* ------------------------------------------------------------------ *)

(* A forced crash on the heterogeneous two-island topology must fail
   over to bit-identical numerics on every workload — stragglers, slow
   links and cross-island remaps reshape the timeline only. *)
let prop_hetero_failover_bit_identical =
  QCheck.Test.make
    ~name:"hetero16: crash failover bit-identical on every workload" ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all
        (fun workload ->
          let t =
            Harness.run_trial ~crash_ranks:1 ~topology:Topology.hetero16
              ~workload ~seed ~index:0 ()
          in
          t.Harness.numerics_ok
          && t.Harness.classification = Harness.Failed_over
          && t.Harness.topology = Some "hetero16")
        [ Harness.Mlp_ag_gemm; Harness.Moe_part2; Harness.Attention_ag ])

(* On the genuinely flat preset the island machinery must be inert:
   failover works and never counts a cross-island replay. *)
let test_flat8_no_cross_island_replays () =
  let t =
    Harness.run_trial ~crash_ranks:1 ~topology:Topology.flat8
      ~workload:Harness.Mlp_ag_gemm ~seed:42 ~index:0 ()
  in
  Alcotest.(check bool) "failed over" true
    (t.Harness.classification = Harness.Failed_over);
  Alcotest.(check bool) "numerics intact" true t.Harness.numerics_ok;
  Alcotest.(check int) "no cross-island replays" 0
    t.Harness.cross_island_replays

(* Without a topology the trial and summary JSON must not mention the
   topology fields at all — existing seeds stay byte-identical. *)
let test_default_summary_mentions_no_topology () =
  let json =
    Harness.summary_to_string
      (Harness.run_trials ~crash_ranks:1 ~workload:Harness.Mlp_ag_gemm
         ~seed:42 ~trials:2 ())
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "no topology key" false (contains "topology");
  Alcotest.(check bool) "no cross_island_replays key" false
    (contains "cross_island_replays")

(* A sweep runs the fault-free run once and shares it; every trial must
   still equal the same trial run alone, flat and on a topology. *)
let test_sweep_equals_single_trials () =
  List.iter
    (fun (name, topology) ->
      let sweep =
        Harness.run_trials ~crash_ranks:1 ?topology
          ~workload:Harness.Mlp_ag_gemm ~seed:42 ~trials:3 ()
      in
      List.iteri
        (fun index in_sweep ->
          let alone =
            Harness.run_trial ~crash_ranks:1 ?topology
              ~workload:Harness.Mlp_ag_gemm ~seed:42 ~index ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s trial %d equals run_trial" name index)
            true (alone = in_sweep))
        sweep.Harness.s_trials;
      Alcotest.(check int) (name ^ " trials") 3
        (List.length sweep.Harness.s_trials))
    [ ("flat", None); ("hetero16", Some Topology.hetero16) ]

(* ------------------------------------------------------------------ *)
(* Partition triage                                                    *)
(* ------------------------------------------------------------------ *)

(* A small two-island topology drawn for the world-4 MLP, so the
   partition scenarios stay cheap to simulate. *)
let topo2x2 =
  {
    Topology.name = "islands2x2";
    shape = Topology.Islands { islands = 2; per_island = 2 };
    hetero = false;
    cotenant = false;
  }

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

let quiet_spec =
  {
    (Chaos.no_machine_faults Chaos.default_spec) with
    Chaos.drop_prob = 0.0;
    duplicate_prob = 0.0;
    delay_prob = 0.0;
  }

(* Island 0 dies whole behind a partitioned NIC: survivors exist, but
   every one sits across the cut, so re-hosting the dead shard would
   have to cross the partitioned fabric.  The coordinator must triage
   this as a structural "partition" stall naming the cut — never a
   hang, never a bare deadlock. *)
let test_island_crash_behind_partition_is_structural () =
  let topology = topo2x2 in
  let layout = Topology.layout topology ~world_size:4 in
  let build () =
    Mlp.ag_gemm_program ~config:small_config small_mlp
      ~spec_gpu:Calib.test_machine
  in
  let ideal =
    let cluster = Cluster.create ~topology Calib.test_machine ~world_size:4 in
    (Runtime.run cluster (build ())).Runtime.makespan
  in
  let t1 = 0.3 *. ideal in
  let schedule =
    Chaos.with_nic_partitions
      (Chaos.with_crashes
         (Chaos.plan ~spec:quiet_spec ~horizon_us:(2.0 *. ideal) ~layout
            ~seed:7 ~world_size:4 ())
         [
           (0, { Chaos.cr_at = t1 });
           (1, { Chaos.cr_at = t1 });
         ])
      [ (0, { Chaos.w_from = 0.0; w_until = Float.infinity; w_factor = 0.0 }) ]
  in
  let watchdog =
    {
      Chaos.poll_interval_us = ideal /. 50.0;
      wait_timeout_us = 2.0 *. ideal;
      stall_timeout_us = 8.0 *. ideal;
      max_retries = 5;
      backoff_base_us = ideal /. 10.0;
      retry = true;
      policy = Chaos.Failover;
    }
  in
  let control = Chaos.control ~schedule ~watchdog () in
  let memory = Mlp.ag_gemm_alloc small_mlp ~seed:11 in
  let cluster = Cluster.create ~topology Calib.test_machine ~world_size:4 in
  let telemetry = Harness.Obs.Telemetry.create () in
  match
    Runtime.run ~telemetry ~data:true ~memory ~chaos:control ~rebuild:build
      cluster (build ())
  with
  | _ -> Alcotest.fail "island crash behind a partition must not complete"
  | exception Chaos.Stall s ->
    Alcotest.(check string) "triaged as partition" "partition"
      s.Chaos.stall_kind;
    Alcotest.(check string) "names the cut NIC" "nic[0]" s.Chaos.stall_key;
    Alcotest.(check bool) "owner is a dead island-0 rank" true
      (Topology.island_of layout s.Chaos.stall_owner = 0);
    Alcotest.(check bool) "stall recorded in recovery" true
      (List.exists
         (fun r -> r.Chaos.stall_kind = "partition")
         control.Chaos.c_recovery.Chaos.stalls);
    Alcotest.(check (option int)) "recovery.stalls counted once" (Some 1)
      (Harness.Obs.Metrics.counter_value
         (Harness.Obs.Telemetry.metrics telemetry)
         "recovery.stalls")

(* Crashing every island leaves zero cross-island survivors: the
   harness must classify the trial Stalled with structured stall info
   — the run terminates with a diagnosis instead of hanging. *)
let test_all_islands_crash_is_structural () =
  let t =
    Harness.run_trial ~crash_ranks:4 ~topology:topo2x2
      ~workload:Harness.Mlp_ag_gemm ~seed:42 ~index:0 ()
  in
  Alcotest.(check bool) "classified stalled" true
    (t.Harness.classification = Harness.Stalled);
  match t.Harness.stall with
  | None -> Alcotest.fail "no-survivor island crash carries no stall info"
  | Some s ->
    Alcotest.(check bool) "stall names a key" true (s.Harness.si_key <> "")

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "topology"
    [
      ( "presets",
        [
          Alcotest.test_case "preset resolution" `Quick test_preset_resolution;
          Alcotest.test_case "layout island mapping" `Quick
            test_layout_island_mapping;
          Alcotest.test_case "hetero scale factors" `Quick
            test_hetero_scale_factors;
          Alcotest.test_case "cotenant tax seeded" `Quick
            test_cotenant_tax_seeded;
        ] );
      ( "failover",
        [
          qc prop_hetero_failover_bit_identical;
          Alcotest.test_case "flat8: no cross-island replays" `Quick
            test_flat8_no_cross_island_replays;
          Alcotest.test_case "default summary mentions no topology" `Quick
            test_default_summary_mentions_no_topology;
          Alcotest.test_case "sweep equals single trials" `Quick
            test_sweep_equals_single_trials;
        ] );
      ( "partition",
        [
          Alcotest.test_case "island crash behind partition is structural"
            `Quick test_island_crash_behind_partition_is_structural;
          Alcotest.test_case "all islands crash is structural" `Quick
            test_all_islands_crash_is_structural;
        ] );
    ]
