(* Correctness tests for the overlapped workload kernels: every
   generated schedule must reproduce the reference computation exactly,
   across tile sizes, orders and resource bindings. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine
open Tilelink_workloads

let tensor_close ?(atol = 1e-9) msg expected actual =
  let report = Check.compare ~atol expected actual in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s)" msg
       (Format.asprintf "%a" Check_report.pp report))
    true report.Check.within

let base_config =
  {
    Design_space.comm_tile = (2, 2);
    compute_tile = (2, 3);
    comm_order = Tile.Row_major;
    compute_order = Tile.Row_major;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

(* ------------------------------------------------------------------ *)
(* AG + GEMM                                                           *)
(* ------------------------------------------------------------------ *)

let ag_spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 }

let run_ag_gemm ?transfer config =
  let memory = Mlp.ag_gemm_alloc ag_spec ~seed:11 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Mlp.ag_gemm_program ?transfer ~config ag_spec
      ~spec_gpu:Calib.test_machine
  in
  let result = Runtime.run ~data:true ~memory cluster program in
  (memory, result)

let check_ag_gemm ?transfer config msg =
  let memory, _ = run_ag_gemm ?transfer config in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "%s rank %d" msg rank)
      (Mlp.ag_gemm_reference memory ag_spec ~rank)
      (Memory.find memory ~rank ~name:"y")
  done

let test_ag_gemm_sm_binding () = check_ag_gemm base_config "sm binding"

let test_ag_gemm_dma_binding () =
  check_ag_gemm
    { base_config with Design_space.binding = Design_space.Comm_on_dma }
    "dma binding"

let test_ag_gemm_hybrid_binding () =
  check_ag_gemm
    {
      base_config with
      Design_space.binding =
        Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 1 };
    }
    "hybrid binding"

let test_ag_gemm_ring_orders () =
  check_ag_gemm
    {
      base_config with
      Design_space.comm_order = Tile.Ring_from_self { segments = 2 };
      compute_order = Tile.Ring_from_self { segments = 2 };
    }
    "ring orders"

let test_ag_gemm_mismatched_tiles () =
  (* Comm tile 4 rows vs compute tile 2 rows — the decoupled sizes the
     paper motivates. *)
  check_ag_gemm
    { base_config with Design_space.comm_tile = (4, 4) }
    "decoupled tile sizes"

let test_ag_gemm_deep_pipeline () =
  check_ag_gemm { base_config with Design_space.stages = 4 } "stages=4"

let test_ag_gemm_push_mode () =
  check_ag_gemm ~transfer:`Push base_config "push mode"

let test_ag_gemm_push_mode_dma () =
  check_ag_gemm ~transfer:`Push
    { base_config with Design_space.binding = Design_space.Comm_on_dma }
    "push mode dma"

let test_ag_gemm_push_world4 () =
  (* Push mode across 4 ranks with decoupled tile sizes. *)
  let spec4 = { Mlp.m = 16; k = 4; n = 6; world_size = 4 } in
  let memory = Mlp.ag_gemm_alloc spec4 ~seed:12 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let config =
    {
      base_config with
      Design_space.comm_tile = (4, 4);
      comm_order = Tile.Ring_from_self { segments = 4 };
    }
  in
  let program =
    Mlp.ag_gemm_program ~transfer:`Push ~config spec4
      ~spec_gpu:Calib.test_machine
  in
  ignore (Runtime.run ~data:true ~memory cluster program);
  for rank = 0 to 3 do
    tensor_close
      (Printf.sprintf "push world-4 rank %d" rank)
      (Mlp.ag_gemm_reference memory spec4 ~rank)
      (Memory.find memory ~rank ~name:"y")
  done

let test_ag_gemm_push_consistent () =
  let program =
    Mlp.ag_gemm_program ~transfer:`Push ~config:base_config ag_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_ag_gemm_program_is_consistent () =
  let program =
    Mlp.ag_gemm_program ~config:base_config ag_spec
      ~spec_gpu:Calib.test_machine
  in
  (match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v)

let test_ag_gemm_rejects_bad_tile () =
  Alcotest.(check bool) "non-dividing comm tile rejected" true
    (try
       ignore
         (Mlp.ag_gemm_program
            ~config:{ base_config with Design_space.comm_tile = (3, 3) }
            ag_spec ~spec_gpu:Calib.test_machine);
       false
     with Invalid_argument _ -> true)

(* A chunk count below 1 is a bad design point like a non-dividing
   tile: synthesizing it raises [Invalid_argument] (not
   [Division_by_zero], and never a program with empty GEMM tiles), so
   the tuner counts it as a skipped build. *)
let test_ag_gemm_rejects_bad_chunks () =
  let rejects what build =
    Alcotest.(check bool) what true
      (try
         ignore (build ());
         false
       with Invalid_argument _ -> true)
  in
  let graph = Planned.mlp_graph ag_spec in
  let synthesize config chunks =
    Planner.synthesize graph
      {
        Planner.pl_config = config;
        pl_transfer = Planner.Pull;
        pl_chunks = chunks;
      }
      ~spec_gpu:Calib.test_machine
  in
  List.iter
    (fun chunks ->
      rejects (Printf.sprintf "planner chunks=%d rejected" chunks)
        (fun () -> synthesize base_config chunks))
    [ 0; -1 ];
  (* The stage count marks which candidate gets which chunk count. *)
  let configs =
    List.map
      (fun stages -> { base_config with Design_space.stages })
      [ 1; 2; 3 ]
  in
  let build (config : Design_space.config) =
    synthesize config
      (match config.Design_space.stages with 1 -> 0 | 2 -> -1 | _ -> 2)
  in
  match
    Tune.search_programs ~workload:"test:bad-chunks" ~build
      ~make_cluster:(fun () -> Cluster.create Calib.test_machine ~world_size:2)
      configs
  with
  | None -> Alcotest.fail "bad-chunk search built no candidate"
  | Some o ->
    Alcotest.(check int) "both bad chunk counts skipped at build" 2
      o.Tune.skipped_build;
    Alcotest.(check int) "one candidate evaluated" 1
      (List.length o.Tune.evaluated);
    Alcotest.(check int) "the winner has 3 stages" 3
      o.Tune.best.Tune.config.Design_space.stages

let prop_ag_gemm_correct_random_shapes =
  QCheck.Test.make
    ~name:"ag+gemm correct across random shapes, tiles and modes" ~count:25
    QCheck.(
      quad
        (pair (int_range 1 2) (int_range 1 3)) (* world exp, tiles/shard *)
        (int_range 1 3)                        (* comm tile rows *)
        (pair (int_range 1 5) (int_range 1 5)) (* k, n *)
        (pair (pair (int_range 1 4) (int_range 1 4)) bool))
    (* compute tile, push? *)
      (fun ((world_exp, tiles_per_shard), comm_tm, (k, n), ((ctm, ctn), push)) ->
      (* Shrinking may step outside the generator ranges; clamp. *)
      let world = 1 lsl max 1 world_exp in
      let tiles_per_shard = max 1 tiles_per_shard in
      let comm_tm = max 1 comm_tm in
      let k = max 1 k and n = max 1 n in
      let ctm = max 1 ctm and ctn = max 1 ctn in
      let m = world * comm_tm * tiles_per_shard in
      let spec = { Mlp.m; k; n; world_size = world } in
      let config =
        {
          Design_space.comm_tile = (comm_tm, comm_tm);
          compute_tile = (ctm, ctn);
          comm_order = Tile.Ring_from_self { segments = world };
          compute_order = Tile.Row_major;
          binding = Design_space.Comm_on_sm 1;
          stages = 2;
          micro_block = 0;
        }
      in
      let memory = Mlp.ag_gemm_alloc spec ~seed:(m + k + n) in
      let cluster = Cluster.create Calib.test_machine ~world_size:world in
      let program =
        Mlp.ag_gemm_program
          ~transfer:(if push then `Push else `Pull)
          ~config spec ~spec_gpu:Calib.test_machine
      in
      ignore (Runtime.run ~data:true ~memory cluster program);
      List.for_all
        (fun rank ->
          Check.close
            (Mlp.ag_gemm_reference memory spec ~rank)
            (Memory.find memory ~rank ~name:"y"))
        (List.init world (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* GEMM + ring ReduceScatter                                           *)
(* ------------------------------------------------------------------ *)

let rs_spec = { Mlp.rs_m = 8; rs_k = 3; rs_n = 4; rs_world = 2 }

let rs_config =
  {
    Design_space.comm_tile = (2, 2);
    compute_tile = (2, 2);
    comm_order = Tile.Row_major;
    compute_order = Tile.Row_major;
    binding = Design_space.Comm_on_sm 1;
    stages = 1;
    micro_block = 0;
  }

let check_gemm_rs config msg =
  let memory = Mlp.gemm_rs_alloc rs_spec ~seed:21 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Mlp.gemm_rs_program ~config rs_spec ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "%s rank %d" msg rank)
      (Mlp.gemm_rs_reference memory rs_spec ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_gemm_rs_basic () = check_gemm_rs rs_config "ring rs"

let test_gemm_rs_hybrid () =
  check_gemm_rs
    {
      rs_config with
      Design_space.binding =
        Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 1 };
    }
    "hybrid rs"

let test_gemm_rs_decoupled_tiles () =
  check_gemm_rs
    {
      rs_config with
      Design_space.comm_tile = (4, 4);
      compute_tile = (2, 2);
    }
    "decoupled rs tiles"

let test_gemm_rs_larger_world () =
  let spec = { Mlp.rs_m = 16; rs_k = 3; rs_n = 4; rs_world = 4 } in
  let memory = Mlp.gemm_rs_alloc spec ~seed:31 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let program =
    Mlp.gemm_rs_program ~config:rs_config spec ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 3 do
    tensor_close
      (Printf.sprintf "world-4 rank %d" rank)
      (Mlp.gemm_rs_reference memory spec ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

(* More than one ring worker lets a sender issue stage s+1 of a tile
   before stage s, so a receiver must never be released by a later
   stage's signal: every multi-worker binding must still reduce to the
   reference on every rank. *)
let test_gemm_rs_multi_worker () =
  let wrong = ref [] in
  List.iter
    (fun world ->
      List.iter
        (fun (binding, comm_tile, compute_tile) ->
          let spec =
            { Mlp.rs_m = 8 * world; rs_k = 3; rs_n = 8; rs_world = world }
          in
          let config =
            { rs_config with Design_space.binding; comm_tile; compute_tile }
          in
          let memory = Mlp.gemm_rs_alloc spec ~seed:(50 + world) in
          let cluster = Cluster.create Calib.test_machine ~world_size:world in
          let program =
            Mlp.gemm_rs_program ~config spec ~spec_gpu:Calib.test_machine
          in
          ignore (Runtime.run ~data:true ~memory cluster program);
          for rank = 0 to world - 1 do
            if
              not
                (Check.close ~atol:1e-9
                   (Mlp.gemm_rs_reference memory spec ~rank)
                   (Memory.find memory ~rank ~name:"out"))
            then
              wrong :=
                Printf.sprintf "w%d %s rank %d" world
                  (Design_space.config_to_string config)
                  rank
                :: !wrong
          done)
        [
          (Design_space.Comm_on_sm 2, (2, 2), (2, 2));
          (Design_space.Comm_on_sm 4, (2, 2), (2, 4));
          (Design_space.Comm_on_sm 8, (2, 4), (4, 2));
          (Design_space.Comm_on_dma, (2, 2), (2, 2));
          (Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 3 }, (2, 2), (8, 2));
        ])
    [ 2; 3; 4 ];
  Alcotest.(check (list string)) "ranks off the reference" [] (List.rev !wrong)

let test_gemm_rs_consistent () =
  let program =
    Mlp.gemm_rs_program ~config:rs_config rs_spec
      ~spec_gpu:Calib.test_machine
  in
  (match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v)

(* ------------------------------------------------------------------ *)
(* MoE: dynamic mapping                                                *)
(* ------------------------------------------------------------------ *)

let moe_spec =
  {
    Moe.tokens = 8;
    hidden = 4;
    intermediate = 8;
    experts = 3;
    topk = 2;
    world_size = 2;
  }

let test_moe_part1 () =
  let route = Moe.routing moe_spec ~seed:5 in
  let memory = Moe.part1_alloc moe_spec ~seed:41 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let config =
    {
      Moe.comm_tile_rows = 2;
      group_tile_rows = 2;
      comm_binding = Design_space.Comm_on_sm 1;
    }
  in
  let program =
    Moe.part1_program ~config moe_spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "moe part1 rank %d" rank)
      (Moe.part1_reference memory moe_spec route ~rank)
      (Memory.find memory ~rank ~name:"moe_mid")
  done

let test_moe_part1_dma () =
  let route = Moe.routing moe_spec ~seed:6 in
  let memory = Moe.part1_alloc moe_spec ~seed:42 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let config =
    {
      Moe.comm_tile_rows = 4;
      group_tile_rows = 2;
      comm_binding = Design_space.Comm_on_dma;
    }
  in
  let program =
    Moe.part1_program ~config moe_spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "moe part1 dma rank %d" rank)
      (Moe.part1_reference memory moe_spec route ~rank)
      (Memory.find memory ~rank ~name:"moe_mid")
  done

let moe_part2_config =
  {
    Moe.gg_tile_rows = 2;
    reduce_tile_rows = 2;
    rs_tile_rows = 2;
    reduce_sms = 1;
    rs_sms = 1;
  }

let test_moe_part2 () =
  let route = Moe.routing moe_spec ~seed:7 in
  let memory = Moe.part2_alloc moe_spec ~seed:43 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Moe.part2_program ~config:moe_part2_config moe_spec route
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "moe part2 rank %d" rank)
      (Moe.part2_reference memory moe_spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_moe_part2_world4 () =
  let spec = { moe_spec with Moe.tokens = 16; world_size = 4 } in
  let route = Moe.routing spec ~seed:8 in
  let memory = Moe.part2_alloc spec ~seed:44 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let program =
    Moe.part2_program ~config:moe_part2_config spec route
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 3 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "moe part2 w4 rank %d" rank)
      (Moe.part2_reference memory spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

(* The shipped default config on a machine with fewer SMs than its
   worker caps: many ring workers race over the stages of each tile. *)
let test_moe_part2_default_config () =
  let spec =
    { Moe.tokens = 1024; hidden = 256; intermediate = 512; experts = 8;
      topk = 2; world_size = 4 }
  in
  List.iter
    (fun seed ->
      let route = Moe.routing spec ~seed in
      let memory = Moe.part2_alloc spec ~seed in
      let cluster = Cluster.create Calib.test_machine ~world_size:4 in
      let program = Moe.part2_program spec route ~spec_gpu:Calib.test_machine in
      ignore (Runtime.run ~data:true ~memory cluster program);
      for rank = 0 to 3 do
        tensor_close ~atol:1e-8
          (Printf.sprintf "moe part2 default seed %d rank %d" seed rank)
          (Moe.part2_reference memory spec route ~rank)
          (Memory.find memory ~rank ~name:"out")
      done)
    [ 1; 2; 3 ]

let test_moe_programs_consistent () =
  let route = Moe.routing moe_spec ~seed:9 in
  List.iter
    (fun program ->
      match Consistency.verify_program program with
      | Ok () -> ()
      | Error v ->
        Alcotest.failf "consistency violation: %a" Consistency.pp_violation v)
    [
      Moe.part1_program moe_spec route ~spec_gpu:Calib.test_machine
        ~config:
          {
            Moe.comm_tile_rows = 2;
            group_tile_rows = 2;
            comm_binding = Design_space.Comm_on_sm 1;
          };
      Moe.part2_program ~config:moe_part2_config moe_spec route
        ~spec_gpu:Calib.test_machine;
    ]

let test_expert_tiles_alignment () =
  let route = Moe.routing moe_spec ~seed:10 in
  let perm = Routing.permutation route in
  let tiles = Moe.expert_tiles perm ~tile_rows:3 in
  (* Tiles never cross expert segment boundaries and cover all rows. *)
  let covered = ref 0 in
  List.iter
    (fun (expert, lo, hi) ->
      covered := !covered + (hi - lo);
      Alcotest.(check bool) "within segment" true
        (lo >= perm.Routing.segment_offsets.(expert)
        && hi <= perm.Routing.segment_offsets.(expert + 1)))
    tiles;
  Alcotest.(check int) "full coverage" (8 * 2) !covered

(* ------------------------------------------------------------------ *)
(* Sequence-parallel attention                                         *)
(* ------------------------------------------------------------------ *)

let attn_spec =
  {
    Attention.batch_heads = 2;
    seq = 16;
    head_dim = 4;
    world_size = 2;
    causal = false;
  }

let attn_config = { Attention.q_tile = 4; kv_tile = 4 }

(* Each consumer tile keeps its online-softmax state per rank, so the
   output must match the reference on both backends and after a
   failover replay, which reruns a crashed rank's tiles on a survivor
   from a rebuilt program. *)
let check_attention spec msg =
  let world = spec.Attention.world_size in
  let build () =
    Attention.program ~config:attn_config spec ~spec_gpu:Calib.test_machine
  in
  let run how execute =
    let memory = Attention.alloc spec ~seed:51 in
    execute memory;
    for rank = 0 to world - 1 do
      tensor_close ~atol:1e-8
        (Printf.sprintf "%s %s rank %d" msg how rank)
        (Attention.reference memory spec ~rank)
        (Memory.find memory ~rank ~name:"o")
    done
  in
  let sequential ?chaos memory =
    let cluster = Cluster.create Calib.test_machine ~world_size:world in
    ignore
      (Runtime.run ~data:true ~memory ?chaos ~rebuild:build cluster (build ()))
  in
  run "sequential" (fun memory -> sequential memory);
  run "parallel" (fun memory ->
      ignore (Parallel.run ~memory ~domains:2 (build ())));
  let ideal =
    (Runtime.run (Cluster.create Calib.test_machine ~world_size:world)
       (build ()))
      .Runtime.makespan
  in
  let control =
    Chaos.control
      ~schedule:
        (Chaos.plan
           ~spec:(Chaos.no_machine_faults Chaos.default_spec)
           ~horizon_us:(ideal *. 1.5) ~crash_ranks:1 ~seed:7 ~world_size:world
           ())
      ~watchdog:{ Chaos.default_watchdog with policy = Chaos.Failover }
      ()
  in
  run "crash replay" (sequential ~chaos:control);
  Alcotest.(check bool) (msg ^ ": the crash replayed tiles") true
    (control.Chaos.c_recovery.Chaos.replayed_tiles > 0)

let test_attention_full () = check_attention attn_spec "full attention"

let test_attention_causal () =
  check_attention { attn_spec with Attention.causal = true } "causal"

let test_attention_world4 () =
  check_attention
    { attn_spec with Attention.seq = 32; world_size = 4 }
    "world 4"

let test_attention_consistent () =
  let program =
    Attention.program ~config:attn_config attn_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_attention_rejects_bad_tiles () =
  Alcotest.(check bool) "kv tile > segment rejected" true
    (try
       ignore
         (Attention.program
            ~config:{ Attention.q_tile = 4; kv_tile = 16 }
            attn_spec ~spec_gpu:Calib.test_machine);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Multi-node: kernels spanning two nodes route through the NIC        *)
(* ------------------------------------------------------------------ *)

let test_ag_gemm_across_two_nodes () =
  (* The test machine has gpus_per_node = 4, so 8 ranks span 2 nodes:
     the gather must stay correct and cross-node traffic must actually
     go through the NICs. *)
  let spec8 = { Mlp.m = 32; k = 4; n = 6; world_size = 8 } in
  let memory = Mlp.ag_gemm_alloc spec8 ~seed:71 in
  let cluster = Cluster.create Calib.test_machine ~world_size:8 in
  Alcotest.(check (list int)) "two nodes" [ 0; 1 ]
    (List.sort_uniq compare
       (List.init 8 (fun rank_id -> Cluster.island_of cluster ~rank_id)));
  Alcotest.(check bool) "nodes split at 4" true
    (Cluster.same_node cluster 0 3 && not (Cluster.same_node cluster 3 4));
  let config =
    {
      base_config with
      Design_space.comm_tile = (4, 4);
      comm_order = Tile.Ring_from_self { segments = 8 };
    }
  in
  let program =
    Mlp.ag_gemm_program ~config spec8 ~spec_gpu:Calib.test_machine
  in
  ignore (Runtime.run ~data:true ~memory cluster program);
  for rank = 0 to 7 do
    tensor_close
      (Printf.sprintf "two-node rank %d" rank)
      (Mlp.ag_gemm_reference memory spec8 ~rank)
      (Memory.find memory ~rank ~name:"y")
  done;
  (* [Cluster.link] is what a transfer binds on: the source node's NIC
     across nodes, the source rank's NVLink egress within one. *)
  let bytes ~src ~dst =
    Tilelink_sim.Bandwidth.bytes_moved (Cluster.link cluster ~src ~dst)
  in
  Alcotest.(check bool) "cross-node bytes went through NIC 0" true
    (bytes ~src:0 ~dst:4 > 0.0);
  Alcotest.(check bool) "and NIC 1" true (bytes ~src:4 ~dst:0 > 0.0);
  Alcotest.(check bool) "intra-node bytes on NVLink" true
    (bytes ~src:0 ~dst:1 > 0.0)

let test_cross_node_slower_than_intra () =
  (* Same transfer volume, NIC vs NVLink: the inter-node path must be
     slower on the calibrated machine. *)
  let time src dst =
    let open Tilelink_sim in
    let cluster = Cluster.create Calib.test_machine ~world_size:8 in
    let engine = Cluster.engine cluster in
    let link = Cluster.link cluster ~src ~dst in
    let bytes = 1.0e6 in
    Alcotest.(check bool) "idle link admits" true (Bandwidth.try_admit link);
    Engine.schedule engine ~delay:(Bandwidth.wire_time link ~bytes) (fun () ->
        Bandwidth.wire_done link ~bytes;
        Engine.schedule engine ~delay:(Bandwidth.latency link) ignore);
    Engine.run engine;
    Cluster.now cluster
  in
  Alcotest.(check bool) "NIC slower than NVLink" true (time 0 4 > time 0 1)

(* ------------------------------------------------------------------ *)
(* RingAttention as a tile program                                     *)
(* ------------------------------------------------------------------ *)

let ring_config = { Ring_attention.q_tile = 4; comm_sms = 1 }

let check_ring_attention spec msg =
  let memory = Ring_attention.alloc spec ~seed:61 in
  let cluster =
    Cluster.create Calib.test_machine ~world_size:spec.Attention.world_size
  in
  let program =
    Ring_attention.program ~config:ring_config spec
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to spec.Attention.world_size - 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "%s rank %d" msg rank)
      (Ring_attention.reference memory spec ~rank)
      (Memory.find memory ~rank ~name:"o")
  done

let test_ring_attention_full () = check_ring_attention attn_spec "ring full"

let test_ring_attention_causal () =
  check_ring_attention
    { attn_spec with Attention.causal = true }
    "ring causal"

let test_ring_attention_world4 () =
  check_ring_attention
    { attn_spec with Attention.seq = 32; world_size = 4 }
    "ring world 4"

let test_ring_attention_consistent () =
  let program =
    Ring_attention.program ~config:ring_config attn_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_ring_segment_rotation () =
  let spec = { attn_spec with Attention.world_size = 4 } in
  (* Rank 1 holds its own segment at step 0, then 0, 3, 2. *)
  Alcotest.(check (list int)) "rotation" [ 1; 0; 3; 2 ]
    (List.init 4 (fun step -> Ring_attention.segment_at spec ~rank:1 ~step))

(* ------------------------------------------------------------------ *)
(* Expert-parallel MoE (All2All extension)                             *)
(* ------------------------------------------------------------------ *)

let ep_spec =
  {
    Ep_moe.tokens = 16;
    hidden = 4;
    intermediate = 6;
    experts = 4;
    topk = 2;
    world_size = 2;
  }

let ep_config =
  { Ep_moe.tile_rows = 2; comm_binding = Design_space.Comm_on_dma }

let check_ep_moe spec msg =
  let route = Ep_moe.routing spec ~seed:13 in
  let memory, _layout = Ep_moe.alloc spec route ~seed:14 in
  let cluster =
    Cluster.create Calib.test_machine ~world_size:spec.Ep_moe.world_size
  in
  let program =
    Ep_moe.program ~config:ep_config spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to spec.Ep_moe.world_size - 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "%s rank %d" msg rank)
      (Ep_moe.reference memory spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_ep_moe_correct () = check_ep_moe ep_spec "ep moe"

let test_ep_moe_world4 () =
  check_ep_moe
    { ep_spec with Ep_moe.tokens = 32; experts = 8; world_size = 4 }
    "ep moe w4"

let test_ep_moe_topk1 () =
  check_ep_moe { ep_spec with Ep_moe.topk = 1 } "ep moe topk1"

let test_ep_moe_sm_binding () =
  let route = Ep_moe.routing ep_spec ~seed:15 in
  let memory, _ = Ep_moe.alloc ep_spec route ~seed:16 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Ep_moe.program
      ~config:{ Ep_moe.tile_rows = 2; comm_binding = Design_space.Comm_on_sm 1 }
      ep_spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "ep moe sm rank %d" rank)
      (Ep_moe.reference memory ep_spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_ep_moe_layout_invariants () =
  let route = Ep_moe.routing ep_spec ~seed:17 in
  let layout = Ep_moe.build_layout ep_spec route in
  (* Every token-slot appears in exactly one segment, on the rank that
     owns its expert, at consistent offsets. *)
  let total =
    Array.fold_left
      (fun acc segs ->
        List.fold_left
          (fun acc (seg : Ep_moe.segment) ->
            acc + List.length seg.Ep_moe.entries)
          acc segs)
      0 layout.Ep_moe.segments_of_rank
  in
  Alcotest.(check int) "all slots placed"
    (ep_spec.Ep_moe.tokens * ep_spec.Ep_moe.topk)
    total;
  Array.iteri
    (fun owner segs ->
      let last = ref 0 in
      List.iter
        (fun (seg : Ep_moe.segment) ->
          Alcotest.(check int) "offsets contiguous" !last seg.Ep_moe.recv_lo;
          last := seg.Ep_moe.recv_lo + List.length seg.Ep_moe.entries;
          Alcotest.(check int) "expert owned here" owner
            (Ep_moe.expert_owner ep_spec seg.Ep_moe.expert))
        segs;
      Alcotest.(check int) "recv height" layout.Ep_moe.recv_rows.(owner) !last)
    layout.Ep_moe.segments_of_rank

let test_ep_moe_consistent () =
  let route = Ep_moe.routing ep_spec ~seed:18 in
  let program =
    Ep_moe.program ~config:ep_config ep_spec route
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

(* ------------------------------------------------------------------ *)
(* Pipeline parallelism (future-work feature, §7.4)                    *)
(* ------------------------------------------------------------------ *)

let pp_spec =
  { Pipeline_parallel.stages = 3; micro_batches = 4; micro_rows = 4; width = 5 }

let pp_config = { Pipeline_parallel.tile_rows = 4; comm_sms = 1 }

let test_pipeline_parallel_correct () =
  let memory = Pipeline_parallel.alloc pp_spec ~seed:81 in
  let cluster = Cluster.create Calib.test_machine ~world_size:3 in
  let program =
    Pipeline_parallel.program ~config:pp_config pp_spec
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  tensor_close ~atol:1e-8 "chained gemm through 3 stages"
    (Pipeline_parallel.reference memory pp_spec)
    (Memory.find memory ~rank:2 ~name:"out_buf")

let test_pipeline_parallel_overlaps () =
  (* With several micro-batches the pipelined makespan must be well
     under serial stage-after-stage execution. *)
  let spec =
    { Pipeline_parallel.stages = 4; micro_batches = 8; micro_rows = 512;
      width = 2048 }
  in
  let cluster = Cluster.create Calib.h800 ~world_size:4 in
  let program =
    Pipeline_parallel.program spec ~spec_gpu:Calib.h800
      ~config:{ Pipeline_parallel.tile_rows = 128; comm_sms = 8 }
  in
  let pipelined = (Runtime.run cluster program).Runtime.makespan in
  let serial = Pipeline_parallel.serial_time Calib.h800 spec in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined (%.0f) < 0.8 * serial (%.0f)" pipelined serial)
    true
    (pipelined < 0.8 *. serial)

let test_pipeline_parallel_consistent () =
  let program =
    Pipeline_parallel.program ~config:pp_config pp_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_pipeline_parallel_single_stage () =
  (* Degenerate single-stage pipeline: just the local GEMM. *)
  let spec =
    { Pipeline_parallel.stages = 1; micro_batches = 2; micro_rows = 4;
      width = 3 }
  in
  let memory = Pipeline_parallel.alloc spec ~seed:82 in
  let cluster = Cluster.create Calib.test_machine ~world_size:1 in
  let program =
    Pipeline_parallel.program ~config:pp_config spec
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  tensor_close ~atol:1e-8 "single stage"
    (Pipeline_parallel.reference memory spec)
    (Memory.find memory ~rank:0 ~name:"out_buf")

(* ------------------------------------------------------------------ *)
(* Builder golden digests                                              *)
(* ------------------------------------------------------------------ *)

(* Table-4 MLP-1 on 8 ranks, as the planner sees it. *)
let mlp1_graph () =
  let sh = List.hd Shapes.mlp_configs in
  Planned.mlp_graph
    {
      Mlp.m = sh.Shapes.s;
      k = sh.Shapes.h;
      n = 2 * (sh.Shapes.i / 8);
      world_size = 8;
    }

(* The resource bindings [Suite] and the default planner space leave
   out: DMA and hybrid communication for the hand builders (world 4),
   and a hybrid split for the planner at MLP-1 in both transfer
   directions. *)
let binding_programs () =
  let machine = Calib.test_machine in
  let world = 4 in
  let bindings =
    [
      ("dma", Design_space.Comm_on_dma);
      ("hybrid", Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 });
    ]
  in
  let ring = Tile.Ring_from_self { segments = world } in
  let ag_spec = { Mlp.m = 8 * world; k = 4; n = 6; world_size = world } in
  let rs_spec = { Mlp.rs_m = 4 * world; rs_k = 3; rs_n = 4; rs_world = world } in
  let moe_spec =
    {
      Moe.tokens = 4 * world;
      hidden = 4;
      intermediate = 8;
      experts = 3;
      topk = 2;
      world_size = world;
    }
  in
  let mlp =
    List.concat_map
      (fun (bname, binding) ->
        let ag_config =
          {
            Design_space.comm_tile = (2, 128);
            compute_tile = (2, 2);
            comm_order = ring;
            compute_order = ring;
            binding;
            stages = 2;
            micro_block = 0;
          }
        in
        let rs_config =
          {
            Design_space.comm_tile = (2, 2);
            compute_tile = (2, 2);
            comm_order = Tile.Row_major;
            compute_order = Tile.Row_major;
            binding;
            stages = 1;
            micro_block = 0;
          }
        in
        [
          ( "mlp_ag_gemm_pull/w4/" ^ bname,
            Mlp.ag_gemm_program ~config:ag_config ag_spec ~spec_gpu:machine );
          ( "mlp_ag_gemm_push/w4/" ^ bname,
            Mlp.ag_gemm_program ~transfer:`Push ~config:ag_config ag_spec
              ~spec_gpu:machine );
          ( "mlp_gemm_rs/w4/" ^ bname,
            Mlp.gemm_rs_program ~config:rs_config rs_spec ~spec_gpu:machine );
        ])
      bindings
  in
  let moe =
    ( "moe_part1/w4/dma",
      Moe.part1_program
        ~config:
          {
            Moe.comm_tile_rows = 2;
            group_tile_rows = 2;
            comm_binding = Design_space.Comm_on_dma;
          }
        moe_spec
        (Moe.routing moe_spec ~seed:5)
        ~spec_gpu:machine )
  in
  let graph = mlp1_graph () in
  let first = List.hd (Planner.enumerate (Planner.default_space graph)) in
  let planned =
    List.map
      (fun pl_transfer ->
        let cand =
          {
            first with
            Planner.pl_transfer;
            pl_config =
              {
                first.Planner.pl_config with
                Design_space.binding = List.assoc "hybrid" bindings;
              };
          }
        in
        ( "plan:MLP-1/" ^ Planner.fingerprint cand,
          Planner.synthesize graph cand ~spec_gpu:Calib.h800 ))
      [ Planner.Pull; Planner.Push ]
  in
  mlp @ [ moe ] @ planned

(* Every shipped program, the planner's synthesis of each
   default-space candidate of Table-4 MLP-1 on 8 ranks and
   [binding_programs], one line per program: name, a tab, then the
   digest of its closure-free rendering ([Program_digest]).  The
   committed file pins every builder's output byte for byte
   ([Golden]): labels, instruction order, signal targets and costs. *)
let builder_golden_lines () =
  let line (name, program) = name ^ "\t" ^ Program_digest.digest program in
  let graph = mlp1_graph () in
  let planned =
    List.map
      (fun cand ->
        "plan:MLP-1/" ^ Planner.fingerprint cand ^ "\t"
        ^
        match Planner.synthesize graph cand ~spec_gpu:Calib.h800 with
        | program -> Program_digest.digest program
        | exception Invalid_argument msg -> "invalid: " ^ msg)
      (Planner.enumerate (Planner.default_space graph))
  in
  List.map line (Suite.programs ())
  @ planned
  @ List.map line (binding_programs ())

let test_builders_match_golden () =
  Golden.check ~what:"builder digests" "builder_golden.tsv"
    (builder_golden_lines ())

(* The labels of a program: every task label and every compute or copy
   label, per rank. *)
let labels_of_rank (p : Program.t) rank =
  List.concat_map
    (fun (role : Program.role) ->
      List.concat_map
        (fun (task : Program.task) ->
          task.Program.label
          :: List.filter_map
               (function
                 | Instr.Compute { label; _ } | Instr.Copy { label; _ } ->
                   Some label
                 | _ -> None)
               task.Program.instrs)
        role.Program.tasks)
    (Program.plans p).(rank)

(* Builders render a label once per program: wherever rank r carries a
   label rank 0 also carries, it must be the very same string. *)
let test_ranks_share_labels () =
  let check_program name (p : Program.t) =
    let on_rank0 = Hashtbl.create 256 in
    List.iter (fun l -> Hashtbl.replace on_rank0 l l) (labels_of_rank p 0);
    let shared = ref 0 in
    for rank = 1 to Program.world_size p - 1 do
      List.iter
        (fun l ->
          match Hashtbl.find_opt on_rank0 l with
          | Some l0 ->
            incr shared;
            if not (l0 == l) then
              Alcotest.failf "%s: rank %d renders its own copy of %S" name
                rank l
          | None -> ())
        (labels_of_rank p rank)
    done;
    Alcotest.(check bool) (name ^ ": ranks share labels") true (!shared > 0)
  in
  let graph = mlp1_graph () in
  List.iter
    (fun transfer ->
      let cand =
        List.find
          (fun c -> c.Planner.pl_transfer = transfer)
          (Planner.enumerate (Planner.default_space graph))
      in
      check_program
        ("plan " ^ Planner.transfer_to_string transfer)
        (Planner.synthesize graph cand ~spec_gpu:Calib.h800))
    [ Planner.Pull; Planner.Push ];
  let ag = { ag_spec with Mlp.m = 16; world_size = 4 } in
  List.iter
    (fun transfer ->
      check_program "ag_gemm"
        (Mlp.ag_gemm_program ~transfer ~config:base_config ag
           ~spec_gpu:Calib.test_machine))
    [ `Pull; `Push ];
  check_program "gemm_rs"
    (Mlp.gemm_rs_program ~config:base_config
       { Mlp.rs_m = 16; rs_k = 3; rs_n = 4; rs_world = 4 }
       ~spec_gpu:Calib.test_machine);
  let spec = { moe_spec with Moe.tokens = 16; world_size = 4 } in
  let route = Moe.routing spec ~seed:8 in
  check_program "moe part1"
    (Moe.part1_program
       ~config:
         {
           Moe.comm_tile_rows = 2;
           group_tile_rows = 2;
           comm_binding = Design_space.Comm_on_sm 1;
         }
       spec route ~spec_gpu:Calib.test_machine);
  check_program "moe part2"
    (Moe.part2_program ~config:moe_part2_config spec route
       ~spec_gpu:Calib.test_machine);
  List.iter
    (fun causal ->
      check_program "attention"
        (Attention.program ~config:attn_config
           { attn_spec with Attention.seq = 32; world_size = 4; causal }
           ~spec_gpu:Calib.test_machine))
    [ false; true ]

let () =
  Alcotest.run "workloads"
    [
      ( "ag_gemm",
        [
          Alcotest.test_case "sm binding" `Quick test_ag_gemm_sm_binding;
          Alcotest.test_case "dma binding" `Quick test_ag_gemm_dma_binding;
          Alcotest.test_case "hybrid binding" `Quick
            test_ag_gemm_hybrid_binding;
          Alcotest.test_case "ring orders" `Quick test_ag_gemm_ring_orders;
          Alcotest.test_case "decoupled tiles" `Quick
            test_ag_gemm_mismatched_tiles;
          Alcotest.test_case "deep pipeline" `Quick
            test_ag_gemm_deep_pipeline;
          Alcotest.test_case "push mode" `Quick test_ag_gemm_push_mode;
          Alcotest.test_case "push mode dma" `Quick
            test_ag_gemm_push_mode_dma;
          Alcotest.test_case "push world 4" `Quick test_ag_gemm_push_world4;
          Alcotest.test_case "push consistent" `Quick
            test_ag_gemm_push_consistent;
          Alcotest.test_case "consistent" `Quick
            test_ag_gemm_program_is_consistent;
          Alcotest.test_case "rejects bad tile" `Quick
            test_ag_gemm_rejects_bad_tile;
          Alcotest.test_case "rejects bad chunk count" `Quick
            test_ag_gemm_rejects_bad_chunks;
          QCheck_alcotest.to_alcotest prop_ag_gemm_correct_random_shapes;
        ] );
      ( "gemm_rs",
        [
          Alcotest.test_case "basic" `Quick test_gemm_rs_basic;
          Alcotest.test_case "hybrid" `Quick test_gemm_rs_hybrid;
          Alcotest.test_case "decoupled tiles" `Quick
            test_gemm_rs_decoupled_tiles;
          Alcotest.test_case "world 4" `Quick test_gemm_rs_larger_world;
          Alcotest.test_case "multi-worker ring" `Quick test_gemm_rs_multi_worker;
          Alcotest.test_case "consistent" `Quick test_gemm_rs_consistent;
        ] );
      ( "moe",
        [
          Alcotest.test_case "part1" `Quick test_moe_part1;
          Alcotest.test_case "part1 dma" `Quick test_moe_part1_dma;
          Alcotest.test_case "part2" `Quick test_moe_part2;
          Alcotest.test_case "part2 world 4" `Quick test_moe_part2_world4;
          Alcotest.test_case "part2 default config" `Quick
            test_moe_part2_default_config;
          Alcotest.test_case "consistent" `Quick test_moe_programs_consistent;
          Alcotest.test_case "expert tiles" `Quick
            test_expert_tiles_alignment;
        ] );
      ( "attention",
        [
          Alcotest.test_case "full" `Quick test_attention_full;
          Alcotest.test_case "causal" `Quick test_attention_causal;
          Alcotest.test_case "world 4" `Quick test_attention_world4;
          Alcotest.test_case "consistent" `Quick test_attention_consistent;
          Alcotest.test_case "rejects bad tiles" `Quick
            test_attention_rejects_bad_tiles;
        ] );
      ( "multi-node",
        [
          Alcotest.test_case "ag+gemm across two nodes" `Quick
            test_ag_gemm_across_two_nodes;
          Alcotest.test_case "nic slower than nvlink" `Quick
            test_cross_node_slower_than_intra;
        ] );
      ( "ring_attention",
        [
          Alcotest.test_case "full" `Quick test_ring_attention_full;
          Alcotest.test_case "causal" `Quick test_ring_attention_causal;
          Alcotest.test_case "world 4" `Quick test_ring_attention_world4;
          Alcotest.test_case "consistent" `Quick
            test_ring_attention_consistent;
          Alcotest.test_case "segment rotation" `Quick
            test_ring_segment_rotation;
        ] );
      ( "ep_moe",
        [
          Alcotest.test_case "correct" `Quick test_ep_moe_correct;
          Alcotest.test_case "world 4" `Quick test_ep_moe_world4;
          Alcotest.test_case "topk 1" `Quick test_ep_moe_topk1;
          Alcotest.test_case "sm binding" `Quick test_ep_moe_sm_binding;
          Alcotest.test_case "layout invariants" `Quick
            test_ep_moe_layout_invariants;
          Alcotest.test_case "consistent" `Quick test_ep_moe_consistent;
        ] );
      ( "builders",
        [
          Alcotest.test_case "programs match the golden digests" `Quick
            test_builders_match_golden;
          Alcotest.test_case "ranks share labels" `Quick
            test_ranks_share_labels;
        ] );
      ( "pipeline_parallel",
        [
          Alcotest.test_case "correct" `Quick test_pipeline_parallel_correct;
          Alcotest.test_case "overlaps" `Quick
            test_pipeline_parallel_overlaps;
          Alcotest.test_case "consistent" `Quick
            test_pipeline_parallel_consistent;
          Alcotest.test_case "single stage" `Quick
            test_pipeline_parallel_single_stage;
        ] );
    ]
