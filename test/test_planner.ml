(* The auto-overlap planner: synthesized Pc protocols must match the
   hand-written kernels at the same design point (timing and bits),
   survive the analyzer, and extend to operator graphs no hand-written
   kernel covers. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine
open Tilelink_workloads

let spec_gpu = Calib.test_machine
let make_cluster world () = Cluster.create spec_gpu ~world_size:world

let ring world = Tile.Ring_from_self { segments = world }

(* The sweep design point the hand-written bench suite uses. *)
let suite_config ~world ~comm_tm =
  {
    Design_space.comm_tile = (comm_tm, 128);
    compute_tile = (2, 2);
    comm_order = ring world;
    compute_order = ring world;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

let candidate ?(transfer = Planner.Pull) ?(chunks = 2) config =
  { Planner.pl_config = config; pl_transfer = transfer; pl_chunks = chunks }

let exact_equal msg expected actual =
  Alcotest.(check bool)
    (msg ^ " bit-identical")
    true
    (Tensor.shape expected = Tensor.shape actual
    && Tensor.data expected = Tensor.data actual)

let run_data ?backend ~memory ~world program =
  let cluster = Cluster.create spec_gpu ~world_size:world in
  Runtime.run ~data:true ~memory ?backend cluster program

(* ------------------------------------------------------------------ *)
(* Synthesis mirrors the hand-written kernel                           *)
(* ------------------------------------------------------------------ *)

let mlp_spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 }

let test_synthesize_matches_handwritten () =
  let graph = Planned.mlp_graph mlp_spec in
  List.iter
    (fun transfer ->
      let config = suite_config ~world:2 ~comm_tm:2 in
      let planned =
        Planner.synthesize graph (candidate ~transfer config) ~spec_gpu
      in
      let hand =
        Mlp.ag_gemm_program ~k_chunks:2
          ~transfer:(match transfer with Planner.Pull -> `Pull | Push -> `Push)
          ~config mlp_spec ~spec_gpu
      in
      (match Analyzer.check planned with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "synthesized program failed the analyzer");
      let t_planned =
        (Runtime.run (make_cluster 2 ()) planned).Runtime.makespan
      in
      let t_hand = (Runtime.run (make_cluster 2 ()) hand).Runtime.makespan in
      Alcotest.(check (float 0.0))
        (Planner.transfer_to_string transfer ^ " makespan identical")
        t_hand t_planned;
      (* Same data actions at the same design point: bits match the
         hand-written run, not just the reference. *)
      let mem_planned = Mlp.ag_gemm_alloc mlp_spec ~seed:11 in
      let mem_hand = Mlp.ag_gemm_alloc mlp_spec ~seed:11 in
      ignore (run_data ~memory:mem_planned ~world:2 planned);
      ignore (run_data ~memory:mem_hand ~world:2 hand);
      for rank = 0 to 1 do
        let name = Printf.sprintf "%s rank %d" (Planner.transfer_to_string transfer) rank in
        exact_equal (name ^ " vs handwritten")
          (Memory.find mem_hand ~rank ~name:"y")
          (Memory.find mem_planned ~rank ~name:"y");
        exact_equal (name ^ " vs reference")
          (Mlp.ag_gemm_reference mem_planned mlp_spec ~rank)
          (Memory.find mem_planned ~rank ~name:"y")
      done)
    [ Planner.Pull; Planner.Push ]

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let small_candidates ~world ~shard_rows =
  let tiles = List.filter (fun t -> shard_rows mod t = 0) [ 2; shard_rows ] in
  List.concat_map
    (fun comm_tm ->
      List.concat_map
        (fun transfer ->
          List.map
            (fun chunks ->
              candidate ~transfer ~chunks (suite_config ~world ~comm_tm))
            [ 1; 2 ])
        [ Planner.Pull; Planner.Push ])
    (List.sort_uniq compare tiles)

let test_search_picks_analyzer_clean_winner () =
  let graph = Planned.mlp_graph mlp_spec in
  let candidates =
    (* One deliberately infeasible point: comm tile 3 does not divide
       the 4-row shard, so the planner must count a skipped build. *)
    candidate (suite_config ~world:2 ~comm_tm:3)
    :: small_candidates ~world:2 ~shard_rows:4
  in
  match
    Planner.search ~candidates graph ~spec_gpu ~make_cluster:(make_cluster 2)
      ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    Alcotest.(check int)
      "infeasible candidate skipped at build" 1
      plan.Planner.p_outcome.Tune.skipped_build;
    Alcotest.(check int)
      "no analyzer rejections in this space" 0
      plan.Planner.p_outcome.Tune.skipped_race;
    (match Analyzer.check plan.Planner.p_program with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "winner failed the analyzer");
    (* The winner is the makespan minimum over every evaluation. *)
    List.iter
      (fun e ->
        Alcotest.(check bool) "winner is minimal" true
          (plan.Planner.p_time <= e.Tune.time))
      plan.Planner.p_outcome.Tune.evaluated

let test_search_deterministic () =
  let graph = Planned.mlp_graph mlp_spec in
  let candidates = small_candidates ~world:2 ~shard_rows:4 in
  let run ?pool () =
    match
      Planner.search ?pool ~candidates graph ~spec_gpu
        ~make_cluster:(make_cluster 2) ()
    with
    | None -> Alcotest.fail "search returned no plan"
    | Some plan -> plan
  in
  (* Candidates are synthesized on the pool's domains, so the winner's
     rendered program pins that builds on concurrent domains agree. *)
  let a = run () in
  List.iter
    (fun domains ->
      let b = run ~pool:(Tilelink_exec.Pool.create ~domains ()) () in
      let at = Printf.sprintf " (%d domains)" domains in
      Alcotest.(check string)
        ("same winner across pool widths" ^ at)
        (Planner.fingerprint a.Planner.p_candidate)
        (Planner.fingerprint b.Planner.p_candidate);
      Alcotest.(check (float 0.0))
        ("same makespan" ^ at) a.Planner.p_time b.Planner.p_time;
      Alcotest.(check string)
        ("same winner program" ^ at)
        (Program_digest.digest a.Planner.p_program)
        (Program_digest.digest b.Planner.p_program))
    [ 1; 2; 4 ]

(* A warm search over a cache this process filled trusts every entry,
   synthesizing only the winner: it must still return exactly the cold
   search's plan, at every pool width. *)
let test_warm_search_matches_cold () =
  let graph = Planned.mlp_graph mlp_spec in
  let candidates = small_candidates ~world:2 ~shard_rows:4 in
  List.iter
    (fun domains ->
      let pool =
        if domains = 1 then None
        else Some (Tilelink_exec.Pool.create ~domains ())
      in
      let cache = Tilelink_exec.Cache.create () in
      let run () =
        match
          Planner.search ?pool ~cache ~candidates graph ~spec_gpu
            ~make_cluster:(make_cluster 2) ()
        with
        | None -> Alcotest.fail "search returned no plan"
        | Some plan -> plan
      in
      let cold = run () in
      let warm = run () in
      let at = Printf.sprintf " (%d domains)" domains in
      let scores (p : Planner.plan) =
        List.map
          (fun (e : Tune.score) ->
            (e.Tune.config, e.Tune.time, e.Tune.exposed_comm_us))
          p.Planner.p_outcome.Tune.evaluated
      in
      Alcotest.(check string) ("same winner" ^ at)
        (Planner.fingerprint cold.Planner.p_candidate)
        (Planner.fingerprint warm.Planner.p_candidate);
      Alcotest.(check (float 0.0)) ("same makespan" ^ at)
        cold.Planner.p_time warm.Planner.p_time;
      Alcotest.(check (option (float 0.0))) ("same exposed comm" ^ at)
        cold.Planner.p_exposed_comm_us warm.Planner.p_exposed_comm_us;
      Alcotest.(check bool) ("same evaluated list" ^ at) true
        (scores cold = scores warm);
      Alcotest.(check string) ("same winner program" ^ at)
        (Program_digest.digest cold.Planner.p_program)
        (Program_digest.digest warm.Planner.p_program);
      Alcotest.(check int) ("warm pass all hits" ^ at)
        (List.length warm.Planner.p_outcome.Tune.evaluated)
        warm.Planner.p_outcome.Tune.cache_hits)
    [ 1; 2 ]

(* The search keeps scores, not programs: beyond the winner's program,
   a plan holds only the small per-candidate scores. *)
let test_search_retains_only_the_winner () =
  let graph = Planned.mlp_graph mlp_spec in
  let candidates = small_candidates ~world:2 ~shard_rows:4 in
  match
    Planner.search ~candidates graph ~spec_gpu ~make_cluster:(make_cluster 2)
      ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    let words x = Obj.reachable_words (Obj.repr x) in
    let program = words plan.Planner.p_program in
    let rest = words plan - program in
    Alcotest.(check int)
      "every candidate scored" (List.length candidates)
      (List.length plan.Planner.p_outcome.Tune.evaluated);
    Alcotest.(check bool)
      (Printf.sprintf "plan holds %d words beside its %d-word program" rest
         program)
      true (rest < program)

(* A duplicated candidate scores identically to its original, so only
   the index can separate them: the earlier entry must win at every
   pool width, whichever domain finishes first. *)
let test_search_ties_keep_earliest () =
  let graph = Planned.mlp_graph mlp_spec in
  let candidates = small_candidates ~world:2 ~shard_rows:4 in
  let search ?pool candidates =
    match
      Planner.search ?pool ~candidates graph ~spec_gpu
        ~make_cluster:(make_cluster 2) ()
    with
    | None -> Alcotest.fail "search returned no plan"
    | Some plan -> plan
  in
  let reference = search candidates in
  let winner = reference.Planner.p_candidate in
  let copy = { winner with Planner.pl_chunks = winner.Planner.pl_chunks } in
  List.iter
    (fun domains ->
      let pool = Tilelink_exec.Pool.create ~domains () in
      List.iter
        (fun (label, list, expected) ->
          let plan = search ~pool list in
          let msg what = Printf.sprintf "%s, %d domains: %s" label domains what in
          Alcotest.(check bool)
            (msg "earlier entry wins") true
            (plan.Planner.p_candidate == expected);
          Alcotest.(check (float 0.0))
            (msg "time") reference.Planner.p_time plan.Planner.p_time;
          Alcotest.(check (option (float 0.0)))
            (msg "exposed communication")
            reference.Planner.p_exposed_comm_us
            plan.Planner.p_exposed_comm_us)
        [
          ("copy first", copy :: candidates, copy);
          ("copy last", candidates @ [ copy ], winner);
        ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Randomized specs: planner winner == hand-written, both backends     *)
(* ------------------------------------------------------------------ *)

let qcheck_planner_matches_handwritten =
  QCheck.Test.make ~count:6
    ~name:"random specs: planner winner analyzer-clean, bits = hand-written"
    QCheck.(triple (int_range 1 3) (int_range 2 5) (int_range 2 6))
    (fun (shard_tiles, k, n) ->
      let world = 2 + (shard_tiles mod 2) * 2 in
      (* world in {2, 4} *)
      let shard_rows = 2 * shard_tiles in
      let spec =
        { Mlp.m = world * shard_rows; k; n; world_size = world }
      in
      let graph = Planned.mlp_graph spec in
      let candidates = small_candidates ~world ~shard_rows in
      match
        Planner.search ~candidates graph ~spec_gpu
          ~make_cluster:(make_cluster world) ()
      with
      | None -> QCheck.Test.fail_report "no plan"
      | Some plan ->
        (match Analyzer.check plan.Planner.p_program with
        | Ok () -> ()
        | Error _ -> QCheck.Test.fail_report "winner failed the analyzer");
        let cand = plan.Planner.p_candidate in
        let hand =
          Mlp.ag_gemm_program ~k_chunks:cand.Planner.pl_chunks
            ~transfer:
              (match cand.Planner.pl_transfer with
              | Planner.Pull -> `Pull
              | Planner.Push -> `Push)
            ~config:cand.Planner.pl_config spec ~spec_gpu
        in
        List.for_all
          (fun backend ->
            let mem_p = Mlp.ag_gemm_alloc spec ~seed:23 in
            let mem_h = Mlp.ag_gemm_alloc spec ~seed:23 in
            ignore (run_data ~backend ~memory:mem_p ~world plan.Planner.p_program);
            ignore (run_data ~backend ~memory:mem_h ~world hand);
            List.for_all
              (fun rank ->
                let y_p = Memory.find mem_p ~rank ~name:"y" in
                let y_h = Memory.find mem_h ~rank ~name:"y" in
                Tensor.data y_p = Tensor.data y_h
                && Tensor.data y_p
                   = Tensor.data (Mlp.ag_gemm_reference mem_p spec ~rank))
              (List.init world Fun.id))
          [ `Sequential; `Parallel 2 ])

(* ------------------------------------------------------------------ *)
(* Novel graphs: no hand-written counterpart                           *)
(* ------------------------------------------------------------------ *)

let test_softmax_graph () =
  let m = 8 and k = 5 and world = 2 in
  let graph = Planned.softmax_graph ~m ~k ~world in
  match
    Planner.search
      ~candidates:(small_candidates ~world ~shard_rows:(m / world))
      graph ~spec_gpu ~make_cluster:(make_cluster world) ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    let memory = Planned.softmax_alloc ~m ~k ~world ~seed:7 in
    ignore (run_data ~memory ~world plan.Planner.p_program);
    let expected = Planned.softmax_reference memory ~m ~world in
    for rank = 0 to world - 1 do
      exact_equal
        (Printf.sprintf "softmax rank %d" rank)
        expected
        (Memory.find memory ~rank ~name:"p")
    done

let test_fused_graph_zero_manual_protocol () =
  let spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 } in
  let graph = Planned.fused_graph spec in
  match
    Planner.search ~candidates:(small_candidates ~world:2 ~shard_rows:4) graph
      ~spec_gpu ~make_cluster:(make_cluster 2) ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    (match Analyzer.check plan.Planner.p_program with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "fused winner failed the analyzer");
    let memory = Planned.fused_alloc spec ~seed:13 in
    ignore (run_data ~memory ~world:2 plan.Planner.p_program);
    let softmax_expected = Planned.fused_softmax_reference memory spec in
    for rank = 0 to 1 do
      exact_equal
        (Printf.sprintf "fused gemm rank %d" rank)
        (Planned.fused_gemm_reference memory spec ~rank)
        (Memory.find memory ~rank ~name:"y");
      exact_equal
        (Printf.sprintf "fused softmax rank %d" rank)
        softmax_expected
        (Memory.find memory ~rank ~name:"p")
    done

let test_moe_graph () =
  let m = 8 and k = 4 and n = 5 and world = 2 in
  let graph = Planned.moe_graph ~m ~k ~n ~world in
  match
    Planner.search
      ~candidates:(small_candidates ~world ~shard_rows:(m / world))
      graph ~spec_gpu ~make_cluster:(make_cluster world) ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    let memory = Planned.moe_alloc ~m ~k ~n ~world ~seed:19 in
    ignore (run_data ~memory ~world plan.Planner.p_program);
    for rank = 0 to world - 1 do
      List.iter
        (fun (weights, out) ->
          exact_equal
            (Printf.sprintf "%s rank %d" out rank)
            (Planned.moe_reference memory ~weights ~rank)
            (Memory.find memory ~rank ~name:out))
        [ ("w_gate", "h_gate"); ("w_up", "h_up") ]
    done

(* ------------------------------------------------------------------ *)
(* Space enumeration                                                   *)
(* ------------------------------------------------------------------ *)

let test_default_space () =
  let graph = Planned.mlp_graph { Mlp.m = 256; k = 64; n = 48; world_size = 8 } in
  let space = Planner.default_space graph in
  let candidates = Planner.enumerate space in
  Alcotest.(check int) "size agrees" (Planner.size space)
    (List.length candidates);
  Alcotest.(check bool) "non-empty" true (candidates <> []);
  let shard_rows = 256 / 8 in
  List.iter
    (fun c ->
      let comm_tm = fst c.Planner.pl_config.Design_space.comm_tile in
      Alcotest.(check bool) "comm tile divides the shard" true
        (shard_rows mod comm_tm = 0))
    candidates;
  let fps = List.map Planner.fingerprint candidates in
  Alcotest.(check int) "fingerprints distinct"
    (List.length fps)
    (List.length (List.sort_uniq compare fps))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "planner"
    [
      ( "synthesis",
        [
          Alcotest.test_case "matches hand-written kernel" `Quick
            test_synthesize_matches_handwritten;
        ] );
      ( "search",
        [
          Alcotest.test_case "analyzer-clean winner, skips infeasible" `Quick
            test_search_picks_analyzer_clean_winner;
          Alcotest.test_case "retains only the winner's program" `Quick
            test_search_retains_only_the_winner;
          Alcotest.test_case "ties keep the earliest candidate" `Quick
            test_search_ties_keep_earliest;
          Alcotest.test_case "deterministic across pool widths" `Quick
            test_search_deterministic;
          Alcotest.test_case "warm search matches cold" `Quick
            test_warm_search_matches_cold;
          qc qcheck_planner_matches_handwritten;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "softmax graph" `Quick test_softmax_graph;
          Alcotest.test_case "fused graph, zero manual protocol" `Quick
            test_fused_graph_zero_manual_protocol;
          Alcotest.test_case "moe ffn proxy graph" `Quick test_moe_graph;
          Alcotest.test_case "default space" `Quick test_default_space;
        ] );
    ]
