(* Tests for the baseline models and the cost model: the qualitative
   orderings the paper's evaluation rests on must hold structurally,
   not just at one lucky shape. *)

open Tilelink_machine
open Tilelink_workloads
open Tilelink_baselines

let spec = Calib.h800
let world = 8

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_tile_efficiency_bounds () =
  Alcotest.(check (float 1e-9)) "128x128 is full" 1.0
    (Cost.gemm_tile_efficiency ~tm:128 ~tn:128);
  Alcotest.(check bool) "small tiles degrade" true
    (Cost.gemm_tile_efficiency ~tm:32 ~tn:128 < 1.0);
  Alcotest.(check bool) "never above 1" true
    (Cost.gemm_tile_efficiency ~tm:512 ~tn:512 <= 1.0)

let test_wave_quantization_steps () =
  (* 133 tiles on 132 SMs need 2 waves; 132 need 1. *)
  let t1 =
    Cost.gemm_kernel_time spec ~sms:132 ~m:(132 * 128) ~n:128 ~k:256 ~tm:128
      ~tn:128
  in
  let t2 =
    Cost.gemm_kernel_time spec ~sms:132 ~m:(133 * 128) ~n:128 ~k:256 ~tm:128
      ~tn:128
  in
  Alcotest.(check (float 1e-6)) "one extra tile doubles the time" 2.0
    (t2 /. t1)

let test_gemm_kernel_time_bounded_by_peak () =
  let m, n, k = (4096, 4096, 4096) in
  let t = Cost.gemm_kernel_time spec ~sms:132 ~m ~n ~k ~tm:128 ~tn:128 in
  let ideal =
    Tilelink_tensor.Linalg.gemm_flops ~m ~n ~k
    /. (float_of_int spec.Spec.gpu.num_sms *. spec.Spec.gpu.flops_per_sm)
  in
  Alcotest.(check bool) "never beats peak" true (t >= ideal)

let test_memory_pass_saturates () =
  let few = Cost.hbm_share spec ~sms:4 in
  let quarter = Cost.hbm_share spec ~sms:33 in
  let all = Cost.hbm_share spec ~sms:132 in
  Alcotest.(check bool) "sub-linear growth" true (few < quarter);
  Alcotest.(check (float 1.0)) "saturated at a quarter" quarter all

let test_unfused_attention_memory_bound_at_long_context () =
  let short =
    Cost.unfused_attention_time spec ~batch_heads:32 ~sq:2048 ~skv:16384
      ~d:128
  in
  let long =
    Cost.unfused_attention_time spec ~batch_heads:32 ~sq:16384 ~skv:131072
      ~d:128
  in
  (* 8x rows x 8x cols: compute grows 64x, memory grows 64x, so the
     total grows at least 50x — and must dwarf flash. *)
  Alcotest.(check bool) "superlinear growth" true (long > 50.0 *. short)

(* ------------------------------------------------------------------ *)
(* MLP baselines                                                       *)
(* ------------------------------------------------------------------ *)

let test_decompose_slower_than_nonoverlap_everywhere () =
  List.iter
    (fun (shape : Shapes.mlp) ->
      let i_per_rank = shape.Shapes.i / world in
      let non =
        Nonoverlap.ag_gemm_time spec ~world_size:world ~m:shape.Shapes.s
          ~k:shape.Shapes.h ~n:(2 * i_per_rank)
      in
      let dec =
        Decompose.ag_gemm_time spec ~world_size:world ~m:shape.Shapes.s
          ~k:shape.Shapes.h ~n:(2 * i_per_rank)
      in
      Alcotest.(check bool)
        (shape.Shapes.mlp_name ^ ": decomposition loses")
        true (dec > non))
    Shapes.mlp_configs

let test_pipeline_makespan_limits () =
  (* All-comm: makespan ~ sum of comm. All-compute: ~ sum of compute. *)
  let launch = 0.0 and host_sync = 0.0 in
  let comm_bound =
    Decompose.pipeline_makespan
      ~comm_times:[ 100.0; 100.0; 100.0 ]
      ~compute_times:[ 1.0; 1.0; 1.0 ] ~host_sync ~launch
  in
  Alcotest.(check (float 2.0)) "comm bound" 301.0 comm_bound;
  let compute_bound =
    Decompose.pipeline_makespan ~comm_times:[ 1.0; 1.0; 1.0 ]
      ~compute_times:[ 100.0; 100.0; 100.0 ]
      ~host_sync ~launch
  in
  Alcotest.(check (float 2.0)) "compute bound" 301.0 compute_bound

let test_pipeline_host_sync_accumulates () =
  let base =
    Decompose.pipeline_makespan ~comm_times:[ 1.0; 1.0 ]
      ~compute_times:[ 1.0; 1.0 ] ~host_sync:0.0 ~launch:0.0
  in
  let with_sync =
    Decompose.pipeline_makespan ~comm_times:[ 1.0; 1.0 ]
      ~compute_times:[ 1.0; 1.0 ] ~host_sync:10.0 ~launch:0.0
  in
  Alcotest.(check bool) "syncs add up" true (with_sync >= base +. 20.0)

let test_flux_beats_nonoverlap_on_ag_gemm () =
  let non =
    Nonoverlap.ag_gemm_time spec ~world_size:world ~m:8192 ~k:4096 ~n:2752
  in
  let flux = Flux.ag_gemm_time spec ~world_size:world ~m:8192 ~k:4096 ~n:2752 in
  Alcotest.(check bool) "fusion wins on AG+GEMM" true (flux < non)

let test_flux_coupled_config_is_coupled () =
  let c = Flux.ag_gemm_config ~world_size:world in
  Alcotest.(check bool) "tiles equal" true
    (c.Tilelink_core.Design_space.comm_tile
    = c.Tilelink_core.Design_space.compute_tile)

(* ------------------------------------------------------------------ *)
(* MoE baselines                                                       *)
(* ------------------------------------------------------------------ *)

let moe_of n = Moe_baselines.spec_of_shape (List.nth Shapes.moe_configs n) ~world_size:world

let test_moe_fusion_ladder () =
  (* cublas >= cutlass >= vllm on both parts, for every shape. *)
  List.iteri
    (fun idx (_ : Shapes.moe) ->
      let moe = moe_of idx in
      let route = Moe.routing moe ~seed:23 in
      let c1 = Moe_baselines.cublas_part1 spec moe route in
      let t1 = Moe_baselines.cutlass_part1 spec moe route in
      let v1 = Moe_baselines.vllm_part1 spec moe route in
      Alcotest.(check bool) "part1 ladder" true (c1 >= t1 && t1 >= v1);
      let c2 = Moe_baselines.cublas_part2 spec moe route in
      let t2 = Moe_baselines.cutlass_part2 spec moe route in
      let v2 = Moe_baselines.vllm_part2 spec moe route in
      Alcotest.(check bool) "part2 ladder" true (c2 >= t2 && t2 >= v2))
    Shapes.moe_configs

let test_moe_more_experts_hurts_cublas_only () =
  (* MoE-1 (E=8) vs MoE-2 (E=32), same compute volume: eager per-expert
     dispatch degrades sharply, fused group GEMM barely changes. *)
  let moe8 = moe_of 0 and moe32 = moe_of 1 in
  let r8 = Moe.routing moe8 ~seed:23 and r32 = Moe.routing moe32 ~seed:23 in
  let cublas_ratio =
    Moe_baselines.cublas_part1 spec moe32 r32
    /. Moe_baselines.cublas_part1 spec moe8 r8
  in
  let vllm_ratio =
    Moe_baselines.vllm_part1 spec moe32 r32
    /. Moe_baselines.vllm_part1 spec moe8 r8
  in
  Alcotest.(check bool) "cublas degrades much faster" true
    (cublas_ratio > 1.5 && vllm_ratio < 1.3)

let test_group_gemm_beats_per_expert () =
  let moe = moe_of 2 in
  let route = Moe.routing moe ~seed:23 in
  Alcotest.(check bool) "grouped wins" true
    (Moe_baselines.group_gemm_time spec route ~n:192 ~k:2048
    < Moe_baselines.per_expert_gemm_time spec route ~n:192 ~k:2048)

(* ------------------------------------------------------------------ *)
(* Attention baselines                                                 *)
(* ------------------------------------------------------------------ *)

let attn seq =
  {
    Attention.batch_heads = 32;
    seq;
    head_dim = 128;
    world_size = world;
    causal = false;
  }

let test_attention_ordering () =
  List.iter
    (fun seq ->
      let a = attn seq in
      let torch = Attention_baselines.torch_time spec a in
      let ring = Attention_baselines.ring_attention_time spec a in
      let flash = Attention.flash_only_time spec a ~config:Attention.default_config in
      Alcotest.(check bool) "torch slowest" true (torch > ring);
      Alcotest.(check bool) "ring above compute-only flash" true
        (ring > flash))
    [ 16384; 65536 ]

let test_overlap_report_identity () =
  let r =
    Attention_baselines.overlap_report ~comp_only:100.0 ~comm_only:50.0
      ~overlapped:120.0
  in
  Alcotest.(check (float 1e-9)) "ratio formula" 0.6
    r.Attention_baselines.ratio

let test_kv_allgather_scales_with_world () =
  let t2 = Attention_baselines.kv_allgather_time spec (attn 16384) in
  let a4 = { (attn 16384) with Attention.world_size = 2 } in
  let t4 = Attention_baselines.kv_allgather_time spec a4 in
  (* Fewer ranks -> less data received per rank. *)
  Alcotest.(check bool) "8 ranks gather more" true (t2 > t4)

(* ------------------------------------------------------------------ *)
(* Trace-based overlap report                                          *)
(* ------------------------------------------------------------------ *)

let test_report_interval_algebra () =
  let merged =
    Report.merge_intervals [ (0.0, 2.0); (1.0, 3.0); (5.0, 6.0) ]
  in
  Alcotest.(check int) "two intervals" 2 (List.length merged);
  let inter = Report.intersect [ (0.0, 3.0); (5.0, 6.0) ] [ (2.0, 5.5) ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "intersection"
    [ (2.0, 3.0); (5.0, 5.5) ]
    inter

let test_report_measures_overlap () =
  let trace = Tilelink_sim.Trace.create () in
  let add lane t0 t1 =
    Tilelink_sim.Trace.add trace ~rank:0 ~lane ~label:"x" ~t0 ~t1
  in
  add Tilelink_sim.Trace.Compute_sm 0.0 10.0;
  add Tilelink_sim.Trace.Dma 5.0 15.0;
  add Tilelink_sim.Trace.Wait 15.0 16.0;
  let r = Report.rank_report trace ~rank:0 in
  Alcotest.(check (float 1e-9)) "compute" 10.0 r.Report.compute_busy;
  Alcotest.(check (float 1e-9)) "comm" 10.0 r.Report.comm_busy;
  Alcotest.(check (float 1e-9)) "overlapped" 5.0 r.Report.overlapped;
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Report.overlap_ratio r);
  Alcotest.(check (float 1e-9)) "waits" 1.0 r.Report.wait_time

let test_report_on_real_kernel () =
  (* The overlapped AG+GEMM at paper scale must show substantial
     measured overlap on every rank. *)
  let cluster = Cluster.create ~trace_enabled:true spec ~world_size:world in
  let config =
    {
      Tilelink_core.Design_space.comm_tile = (512, 128);
      compute_tile = (128, 128);
      comm_order = Tilelink_core.Tile.Ring_from_self { segments = world };
      compute_order = Tilelink_core.Tile.Ring_from_self { segments = world };
      binding = Tilelink_core.Design_space.Comm_on_dma;
      stages = 2;
      micro_block = 0;
    }
  in
  let program =
    Mlp.ag_gemm_program ~config
      { Mlp.m = 8192; k = 4096; n = 2752; world_size = world }
      ~spec_gpu:spec
  in
  ignore (Tilelink_core.Runtime.run cluster program);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Format.asprintf "%a" Report.pp r)
        true
        (Report.overlap_ratio r > 0.5))
    (Report.all_ranks (Cluster.trace cluster) ~world_size:world)

(* ------------------------------------------------------------------ *)
(* End-to-end model                                                    *)
(* ------------------------------------------------------------------ *)

let test_models_cover_paper_set () =
  Alcotest.(check int) "eight models" 8 (List.length Model.models);
  Alcotest.(check int) "three moe" 3
    (List.length (List.filter Model.is_moe Model.models))

let test_torch_layer_decomposes () =
  let llm = List.hd Model.models in
  let layer = Torch_model.torch_layer_time spec llm ~world_size:world in
  let mlp =
    Torch_model.torch_mlp_time spec ~world_size:world ~hidden:llm.Model.hidden
      ~intermediate:llm.Model.intermediate
  in
  Alcotest.(check bool) "layer > its MLP part" true (layer > mlp)

let test_two_node_dilutes_speedup () =
  let llm = List.hd Model.models in
  let torch = 1000.0 and tl = 800.0 in
  let torch16 =
    Model.two_node_time spec llm ~world_size:world ~single_node_time:torch
  in
  let tl16 =
    Model.two_node_time spec llm ~world_size:world ~single_node_time:tl
  in
  Alcotest.(check bool) "speedup strictly diluted" true
    (torch16 /. tl16 < torch /. tl);
  Alcotest.(check bool) "same absolute overhead" true
    (Float.abs (torch16 -. torch -. (tl16 -. tl)) < 1e-9)

let test_layer_params_reasonable () =
  (* LLaMA-7B: ~200M parameters per layer. *)
  let p = Model.layer_params (List.hd Model.models) in
  Alcotest.(check bool) "order of magnitude" true (p > 1.5e8 && p < 3.0e8)

let prop_nonoverlap_monotonic_in_m =
  QCheck.Test.make ~name:"nonoverlap ag_gemm monotonic in M" ~count:30
    QCheck.(int_range 1 16)
    (fun mult ->
      let m1 = 1024 * mult and m2 = 1024 * (mult + 1) in
      Nonoverlap.ag_gemm_time spec ~world_size:world ~m:m1 ~k:1024 ~n:512
      <= Nonoverlap.ag_gemm_time spec ~world_size:world ~m:m2 ~k:1024 ~n:512)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "baselines"
    [
      ( "cost model",
        [
          Alcotest.test_case "tile efficiency" `Quick
            test_tile_efficiency_bounds;
          Alcotest.test_case "wave quantization" `Quick
            test_wave_quantization_steps;
          Alcotest.test_case "bounded by peak" `Quick
            test_gemm_kernel_time_bounded_by_peak;
          Alcotest.test_case "hbm saturation" `Quick
            test_memory_pass_saturates;
          Alcotest.test_case "unfused attention" `Quick
            test_unfused_attention_memory_bound_at_long_context;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "decompose loses everywhere" `Quick
            test_decompose_slower_than_nonoverlap_everywhere;
          Alcotest.test_case "pipeline limits" `Quick
            test_pipeline_makespan_limits;
          Alcotest.test_case "host sync accumulates" `Quick
            test_pipeline_host_sync_accumulates;
          Alcotest.test_case "flux beats non-overlap" `Quick
            test_flux_beats_nonoverlap_on_ag_gemm;
          Alcotest.test_case "flux is coupled" `Quick
            test_flux_coupled_config_is_coupled;
          qc prop_nonoverlap_monotonic_in_m;
        ] );
      ( "moe",
        [
          Alcotest.test_case "fusion ladder" `Quick test_moe_fusion_ladder;
          Alcotest.test_case "experts hurt cublas" `Quick
            test_moe_more_experts_hurts_cublas_only;
          Alcotest.test_case "group gemm wins" `Quick
            test_group_gemm_beats_per_expert;
        ] );
      ( "attention",
        [
          Alcotest.test_case "ordering" `Quick test_attention_ordering;
          Alcotest.test_case "overlap report" `Quick
            test_overlap_report_identity;
          Alcotest.test_case "kv allgather scaling" `Quick
            test_kv_allgather_scales_with_world;
        ] );
      ( "report",
        [
          Alcotest.test_case "interval algebra" `Quick
            test_report_interval_algebra;
          Alcotest.test_case "measures overlap" `Quick
            test_report_measures_overlap;
          Alcotest.test_case "real kernel" `Quick test_report_on_real_kernel;
        ] );
      ( "model",
        [
          Alcotest.test_case "paper model set" `Quick
            test_models_cover_paper_set;
          Alcotest.test_case "layer decomposes" `Quick
            test_torch_layer_decomposes;
          Alcotest.test_case "two-node dilution" `Quick
            test_two_node_dilutes_speedup;
          Alcotest.test_case "layer params" `Quick
            test_layer_params_reasonable;
        ] );
    ]
