(* Simulation outputs pinned byte for byte.

   The interpreter, the event engine and the span recorder may be
   rewritten for speed, but never for behaviour: every shipped program
   must run the same events in the same order.  One golden line per
   case ([Golden]) pins what a run reports:
   - every [Suite] program: makespan, notifies, executed events, span
     count and the six attribution buckets;
   - the same for a few programs on the paper machine, where load
     stalls and signal fences cost events;
   - the scores [Tune.search_programs] gives a small design space;
   - one forced-crash chaos trial per workload, plus a whole-island
     crash on islands2x8 and a default-spec trial (machine and signal
     faults drawn against a layout) on hetero16, as JSON records;
   - every operator-centric collective (kind x algorithm) run alone:
     makespan and executed events.

   Floats are rendered with [%h], so a one-ulp drift is a failure. *)

open Tilelink_core
open Tilelink_machine
open Tilelink_workloads
open Tilelink_comm
module Obs = Tilelink_obs
module Harness = Tilelink_chaos.Harness

let buckets_line (a : Obs.Attribution.t) =
  let b = a.Obs.Attribution.buckets in
  Printf.sprintf
    "compute=%h exposed_comm=%h wait_stall=%h contention=%h straggler=%h \
     recovery=%h"
    b.Obs.Attribution.compute b.Obs.Attribution.exposed_comm
    b.Obs.Attribution.wait_stall b.Obs.Attribution.contention
    b.Obs.Attribution.straggler b.Obs.Attribution.recovery

let run_suite_program ?(telemetry = Obs.Telemetry.create ())
    ?(machine = Calib.test_machine) program =
  let cluster =
    Cluster.create machine ~world_size:(Program.world_size program)
  in
  let r = Runtime.run ~telemetry cluster program in
  let spans = Obs.Span.spans (Obs.Telemetry.spans telemetry) in
  let a = Obs.Attribution.of_spans ~makespan:r.Runtime.makespan spans in
  Printf.sprintf "makespan=%h notifies=%d events=%d spans=%d %s"
    r.Runtime.makespan r.Runtime.notifies
    (Tilelink_sim.Engine.executed_events (Cluster.engine cluster))
    (List.length spans) (buckets_line a)

let suite_lines () =
  List.map
    (fun (name, program) -> "suite:" ^ name ^ "\t" ^ run_suite_program program)
    (Suite.programs ())

(* The test machine zeroes the load latency and both signal fences, so
   no [suite:] row ever stalls on a load or pays a wait or notify
   fence.  These rows run programs on the paper machine, where each of
   those paths costs events: a few [Suite] programs, one serve step
   signature (attention at the serving tile, 8) and one MoE part 2. *)
let h800_lines () =
  let suite =
    List.filter
      (fun (name, _) ->
        List.mem name
          [ "mlp_ag_gemm_push/w4/t2"; "mlp_gemm_rs/w4"; "moe_part2/w4";
            "attention/w4"; "ring_attention/w4"; "ep_moe/w4" ])
      (Suite.programs ())
  in
  let serve =
    Attention.program ~config:{ Attention.q_tile = 8; kv_tile = 8 }
      { Attention.batch_heads = 8; seq = 512; head_dim = 64; world_size = 8;
        causal = false }
      ~spec_gpu:Calib.h800
  in
  let moe =
    let s =
      { Moe.tokens = 1024; hidden = 256; intermediate = 512; experts = 8;
        topk = 2; world_size = 4 }
    in
    Moe.part2_program s (Moe.routing s ~seed:5) ~spec_gpu:Calib.h800
  in
  List.map
    (fun (name, program) ->
      "h800:" ^ name ^ "\t" ^ run_suite_program ~machine:Calib.h800 program)
    (suite
    @ [ ("serve_attention/b8/kv512/w8", serve); ("moe_part2/t1024/w4", moe) ])

(* A spans-only handle (what search scoring and chaos trials use) must
   see exactly the run a fully enabled one sees, and record nothing in
   its other halves. *)
let test_spans_only_matches_full () =
  List.iter
    (fun (name, program) ->
      let telemetry = Obs.Telemetry.spans_only () in
      Alcotest.(check string) name
        (run_suite_program program)
        (run_suite_program ~telemetry program);
      Alcotest.(check (list string))
        (name ^ ": no metrics") []
        (Obs.Metrics.counter_names (Obs.Telemetry.metrics telemetry)
        @ Obs.Metrics.gauge_names (Obs.Telemetry.metrics telemetry)
        @ Obs.Metrics.histogram_names (Obs.Telemetry.metrics telemetry));
      Alcotest.(check int)
        (name ^ ": no journal entries") 0
        (Obs.Journal.length (Obs.Telemetry.journal telemetry)))
    (Suite.programs ())

(* AG+GEMM and GEMM+RS at a small shape on 4 ranks: every candidate's
   time and exposed-communication blame, in search order. *)
let search_lines () =
  let world = 4 in
  let shapes = { Mlp.m = 2048; k = 1024; n = 1024; world_size = world } in
  let make_cluster () = Cluster.create Calib.h800 ~world_size:world in
  let lines name build configs =
    match
      Tune.search_programs ~blame:true ~workload:("golden:" ^ name) ~build
        ~make_cluster configs
    with
    | None -> [ "search:" ^ name ^ "\tnone" ]
    | Some o ->
      List.map
        (fun (e : Tune.score) ->
          Printf.sprintf "search:%s/%s\ttime=%h exposed=%s" name
            (Design_space.fingerprint e.Tune.config)
            e.Tune.time
            (match e.Tune.exposed_comm_us with
            | Some x -> Printf.sprintf "%h" x
            | None -> "none"))
        o.Tune.evaluated
  in
  lines "ag_gemm"
    (fun config -> Mlp.ag_gemm_program ~config shapes ~spec_gpu:Calib.h800)
    (Tuned.ag_gemm_candidates ~world_size:world)
  @ lines "gemm_rs"
      (fun config ->
        Mlp.gemm_rs_program ~config
          { Mlp.rs_m = 2048; rs_k = 1024; rs_n = 1024; rs_world = world }
          ~spec_gpu:Calib.h800)
      (Tuned.gemm_rs_candidates ~world_size:world)

let trial_line name (t : Harness.trial) =
  Printf.sprintf "trial:%s\tmakespan=%h recovery=%h %s" name
    t.Harness.makespan_us t.Harness.recovery_overhead_us
    (Obs.Json.to_string (Harness.trial_to_json t))

let trial_lines () =
  List.map
    (fun workload ->
      trial_line
        (Harness.workload_to_string workload)
        (Harness.run_trial ~crash_ranks:1 ~workload ~seed:42 ~index:0 ()))
    [ Harness.Mlp_ag_gemm; Harness.Moe_part2; Harness.Attention_ag ]
  @ [
      trial_line "mlp@islands2x8/crash8"
        (Harness.run_trial ~crash_ranks:8
           ~topology:Topology.islands2x8
           ~workload:Harness.Mlp_ag_gemm ~seed:42 ~index:0 ());
      trial_line "mlp@hetero16"
        (Harness.run_trial ~topology:Topology.hetero16
           ~workload:Harness.Mlp_ag_gemm ~seed:42 ~index:0 ());
    ]

(* The baselines' collectives, every kind and algorithm, at worlds 2,
   4 and 8 on the test machine and at world 16 on the paper machine
   (two nodes, so the ring and the mesh cross the NIC).  The makespan is
   [Collective.standalone_time]'s; the event count comes from the same
   run driven by hand, which must end at the same time. *)
let collective_lines () =
  let kinds =
    [ (Collective.Allgather, "allgather");
      (Collective.Reducescatter, "reducescatter");
      (Collective.Allreduce, "allreduce"); (Collective.All2all, "all2all") ]
  in
  let algos = [ (Collective.Ring, "ring"); (Collective.Mesh, "mesh") ] in
  let bytes_per_shard = 1048576.0 in
  let line (machine, mname) world ((kind, kname), (algo, aname)) =
    let cluster = Cluster.create machine ~world_size:world in
    let op = Collective.create cluster ~kind ~algo ~bytes_per_shard in
    for rank = 0 to world - 1 do
      Collective.start_rank op ~rank
    done;
    Tilelink_sim.Engine.run (Cluster.engine cluster);
    let makespan =
      Collective.standalone_time machine ~world_size:world ~kind ~algo
        ~bytes_per_shard
    in
    if Cluster.now cluster <> makespan then
      Alcotest.failf "collective %s-%s: %h by hand, %h standalone" kname aname
        (Cluster.now cluster) makespan;
    Printf.sprintf "collective:%s-%s/%s/w%d\tmakespan=%h events=%d" kname
      aname mname world makespan
      (Tilelink_sim.Engine.executed_events (Cluster.engine cluster))
  in
  let cases = List.concat_map (fun k -> List.map (fun a -> (k, a)) algos) kinds in
  List.concat_map
    (fun world -> List.map (line (Calib.test_machine, "test") world) cases)
    [ 2; 4; 8 ]
  @ List.map (line (Calib.h800, "h800") 16) cases

let test_sim_golden () =
  Golden.check ~what:"simulation outputs" "sim_golden.tsv"
    (suite_lines () @ h800_lines () @ search_lines () @ trial_lines ()
   @ collective_lines ())

let () =
  Alcotest.run "sim_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "simulation outputs match the golden file" `Quick
            test_sim_golden;
          Alcotest.test_case "spans-only telemetry matches full telemetry"
            `Quick test_spans_only_matches_full;
        ] );
    ]
