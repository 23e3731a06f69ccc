(* The auto-overlap planner: synthesized Pc protocols must survive the
   analyzer, compute the reference bit for bit on both backends, and
   extend to operator graphs no hand-written kernel covers. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine
open Tilelink_workloads

let spec_gpu = Calib.test_machine
let make_cluster world () = Cluster.create spec_gpu ~world_size:world

let ring world = Tile.Ring_from_self { segments = world }

(* The sweep design point the bench suite uses. *)
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

(* Run [program] on real data: on the sequential interpreter, or on
   [domains] domains with [Parallel.run]. *)
let run_data ?domains ~memory ~world program =
  match domains with
  | None ->
    let cluster = Cluster.create spec_gpu ~world_size:world in
    ignore (Runtime.run ~data:true ~memory cluster program)
  | Some domains -> ignore (Parallel.run ~memory ~domains program)

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let mlp_spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 }

let test_synthesize_matches_reference () =
  let graph = Planned.mlp_graph mlp_spec in
  List.iter
    (fun transfer ->
      let config = suite_config ~world:2 ~comm_tm:2 in
      let planned =
        Planner.synthesize graph (candidate ~transfer config) ~spec_gpu
      in
      (match Analyzer.check planned with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "synthesized program failed the analyzer");
      List.iter
        (fun domains ->
          let memory = Mlp.ag_gemm_alloc mlp_spec ~seed:11 in
          run_data ?domains ~memory ~world:2 planned;
          for rank = 0 to 1 do
            exact_equal
              (Printf.sprintf "%s %s rank %d"
                 (Planner.transfer_to_string transfer)
                 (match domains with None -> "seq" | Some _ -> "par")
                 rank)
              (Mlp.ag_gemm_reference memory mlp_spec ~rank)
              (Memory.find memory ~rank ~name:"y")
          done)
        [ None; Some 2 ])
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

(* The exhaustive reference: every candidate synthesized, analyzed
   and simulated, scored as the search scores it (makespan, then
   exposed communication, then candidate index). *)
let exhaustive_scores graph ~world candidates =
  List.filter_map
    (fun (index, cand) ->
      match Planner.synthesize graph cand ~spec_gpu with
      | exception Invalid_argument _ -> None
      | program when Analyzer.check program <> Ok () -> None
      | program ->
        let telemetry = Tilelink_obs.Telemetry.spans_only () in
        let r = Runtime.run ~telemetry (make_cluster world ()) program in
        let a =
          Tilelink_obs.Attribution.of_spans ~makespan:r.Runtime.makespan
            (Tilelink_obs.Span.spans (Tilelink_obs.Telemetry.spans telemetry))
        in
        Some
          ( r.Runtime.makespan,
            a.Tilelink_obs.Attribution.buckets.Tilelink_obs.Attribution
              .exposed_comm,
            index,
            cand ))
    (List.mapi (fun i c -> (i, c)) candidates)

(* Every evaluated score is an exhaustive one: its time exactly, and
   its exposed communication exactly when it ties the best makespan,
   the only place the tie-break reads it.  A score that does not tie
   carries no blame, whichever domain finished first. *)
let check_scores ~at ~best_time scores evaluated =
  List.iter
    (fun (e : Tune.score) ->
      Alcotest.(check bool) ("evaluated score is exhaustive" ^ at) true
        (List.exists
           (fun (t, x, _, c) ->
             c.Planner.pl_config = e.Tune.config
             && t = e.Tune.time
             && e.Tune.exposed_comm_us
                = if t = best_time then Some x else None)
           scores))
    evaluated

(* The least (makespan, exposed communication, index) of exhaustive
   scores. *)
let exhaustive_best scores =
  List.fold_left
    (fun ((t, x, i, _) as acc) ((t', x', i', _) as e) ->
      if compare (t', x', i') (t, x, i) < 0 then e else acc)
    (List.hd scores) scores

(* Pruning must not change the plan: the winner, its time, exposed
   communication and program equal an exhaustive scoring of the same
   candidates, every pruned candidate is strictly slower than the
   winner, and what is pruned, evaluated or skipped does not depend on
   the pool width. *)
let test_search_deterministic () =
  let graph = Planned.mlp_graph mlp_spec in
  let candidates = Planner.enumerate (Planner.default_space graph) in
  let scores = exhaustive_scores graph ~world:2 candidates in
  let best_time, best_exposed, _, best = exhaustive_best scores in
  let run ?pool () =
    match
      Planner.search ?pool ~candidates graph ~spec_gpu
        ~make_cluster:(make_cluster 2) ()
    with
    | None -> Alcotest.fail "search returned no plan"
    | Some plan -> plan
  in
  let counts (o : _ Tune.outcome) =
    [
      List.length o.Tune.evaluated; o.Tune.pruned; o.Tune.skipped;
      o.Tune.skipped_build; o.Tune.skipped_invalid; o.Tune.skipped_deadlock;
      o.Tune.skipped_race; o.Tune.cache_hits; o.Tune.cache_misses;
    ]
  in
  let a = run () in
  Alcotest.(check bool) "the bound prunes something" true
    (a.Planner.p_outcome.Tune.pruned > 0);
  List.iter
    (fun domains ->
      (* Candidates are synthesized on the pool's domains, so the
         winner's rendered program pins that builds on concurrent
         domains agree. *)
      let b = run ~pool:(Tilelink_exec.Pool.create ~domains ()) () in
      let o = b.Planner.p_outcome in
      let at = Printf.sprintf " (%d domains)" domains in
      Alcotest.(check string)
        ("winner = exhaustive" ^ at)
        (Planner.fingerprint best)
        (Planner.fingerprint b.Planner.p_candidate);
      Alcotest.(check (float 0.0)) ("time = exhaustive" ^ at) best_time
        b.Planner.p_time;
      Alcotest.(check (option (float 0.0)))
        ("exposed comm = exhaustive" ^ at)
        (Some best_exposed) b.Planner.p_exposed_comm_us;
      Alcotest.(check string)
        ("program = exhaustive" ^ at)
        (Program_digest.digest (Planner.synthesize graph best ~spec_gpu))
        (Program_digest.digest b.Planner.p_program);
      Alcotest.(check (list int))
        ("same counts" ^ at)
        (counts a.Planner.p_outcome) (counts o);
      Alcotest.(check int)
        ("evaluated + pruned + skipped = candidates" ^ at)
        (List.length candidates)
        (List.length o.Tune.evaluated + o.Tune.pruned + o.Tune.skipped);
      check_scores ~at ~best_time scores o.Tune.evaluated;
      let ties times = List.length (List.filter (( = ) best_time) times) in
      Alcotest.(check int)
        ("every candidate tying the winner simulated" ^ at)
        (ties (List.map (fun (t, _, _, _) -> t) scores))
        (ties
           (List.map (fun (e : Tune.score) -> e.Tune.time) o.Tune.evaluated));
      Alcotest.(check int) ("pruned = clean candidates not simulated" ^ at)
        (List.length scores - List.length o.Tune.evaluated)
        o.Tune.pruned)
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

(* Each candidate of [candidates] listed twice, as distinct values:
   every score has an exact tie, which only the index separates. *)
let listed_twice candidates =
  List.concat_map
    (fun c -> [ c; { c with Planner.pl_chunks = c.Planner.pl_chunks } ])
    candidates

(* [Planner.search]'s call into [Tune.search_planned] with every
   synthesis counted.  A cold pass synthesizes every candidate to bound
   it and the simulated ones once more; blaming the ties reuses the
   simulated program.  A warm pass on the same cache trusts its score
   and bound entries and synthesizes only the winner.  After a reload
   from the cache file, every candidate is synthesized and analyzed
   again (loaded bound entries are misses), none is simulated, and the
   exact stored times replay.  The counts hold when every score ties
   another. *)
let test_warm_pass_builds_only_the_winner () =
  let graph = Planned.mlp_graph mlp_spec in
  let space = Planner.enumerate (Planner.default_space graph) in
  List.iter
    (fun (label, candidates) ->
      let path = Filename.temp_file "tilelink_plan" ".json" in
      Sys.remove path;
      let counted_search ?pool cache =
        let builds = Atomic.make 0 in
        match
          Tune.search_planned ?pool ~cache
            ~workload:("plan:" ^ Planner.graph_fingerprint graph)
            ~fingerprint:Planner.fingerprint
            ~config_of:(fun c -> c.Planner.pl_config)
            ~build:(fun c ->
              Atomic.incr builds;
              Planner.synthesize graph c ~spec_gpu)
            ~make_cluster:(make_cluster 2) candidates
        with
        | None -> Alcotest.fail "search returned no plan"
        | Some o -> (o, Atomic.get builds)
      in
      let n = List.length candidates in
      let cache = Tilelink_exec.Cache.create ~path () in
      let cold, builds = counted_search cache in
      let evaluated = List.length cold.Tune.evaluated in
      Alcotest.(check int)
        (label ^ "cold: bound every candidate, rebuild the simulated")
        (n + evaluated) builds;
      let same pass ~builds:expected (o, builds) =
        let pass = label ^ pass in
        Alcotest.(check int) (pass ^ ": synthesis calls") expected builds;
        Alcotest.(check int) (pass ^ ": every score a hit") evaluated
          o.Tune.cache_hits;
        Alcotest.(check int) (pass ^ ": the same candidates pruned")
          cold.Tune.pruned o.Tune.pruned;
        Alcotest.(check bool) (pass ^ ": the same scores, exactly") true
          (o.Tune.evaluated = cold.Tune.evaluated);
        Alcotest.(check string) (pass ^ ": winner program identical")
          (Program_digest.digest (snd cold.Tune.best.Tune.candidate))
          (Program_digest.digest (snd o.Tune.best.Tune.candidate))
      in
      List.iter
        (fun domains ->
          let pool =
            Option.map
              (fun d -> Tilelink_exec.Pool.create ~domains:d ())
              domains
          in
          same
            (Printf.sprintf "warm, %d domains"
               (Option.value ~default:1 domains))
            ~builds:1 (counted_search ?pool cache))
        [ None; Some 2 ];
      Tilelink_exec.Cache.save cache;
      same "reloaded" ~builds:n
        (counted_search (Tilelink_exec.Cache.create ~path ()));
      Sys.remove path)
    [ ("", space); ("listed twice, ", listed_twice space) ]

(* Forced ties: with every candidate listed twice, each winner has an
   exact tie.  The earliest of the least-blame tied scores must win,
   and every tied score must carry its exhaustive blame, at every pool
   width, cold, warm on the same cache, and reloaded from its file. *)
let test_forced_ties () =
  let graph = Planned.mlp_graph mlp_spec in
  let candidates =
    listed_twice (Planner.enumerate (Planner.default_space graph))
  in
  let scores = exhaustive_scores graph ~world:2 candidates in
  let best_time, best_exposed, _, best = exhaustive_best scores in
  let ties = List.filter (fun (t, _, _, _) -> t = best_time) scores in
  List.iter
    (fun domains ->
      let pool = Tilelink_exec.Pool.create ~domains () in
      let path = Filename.temp_file "tilelink_ties" ".json" in
      Sys.remove path;
      let search pass cache =
        let at = Printf.sprintf " (%s, %d domains)" pass domains in
        match
          Planner.search ~pool ~cache ~candidates graph ~spec_gpu
            ~make_cluster:(make_cluster 2) ()
        with
        | None -> Alcotest.fail ("search returned no plan" ^ at)
        | Some plan ->
          Alcotest.(check bool) ("earliest least-blame tie wins" ^ at) true
            (plan.Planner.p_candidate == best);
          Alcotest.(check (float 0.0)) ("time" ^ at) best_time
            plan.Planner.p_time;
          Alcotest.(check (option (float 0.0))) ("exposed comm" ^ at)
            (Some best_exposed) plan.Planner.p_exposed_comm_us;
          let evaluated = plan.Planner.p_outcome.Tune.evaluated in
          check_scores ~at ~best_time scores evaluated;
          Alcotest.(check int) ("every tie scored" ^ at) (List.length ties)
            (List.length
               (List.filter
                  (fun (e : Tune.score) -> e.Tune.time = best_time)
                  evaluated))
      in
      let cache = Tilelink_exec.Cache.create ~path () in
      search "cold" cache;
      search "warm" cache;
      Tilelink_exec.Cache.save cache;
      search "reloaded" (Tilelink_exec.Cache.create ~path ());
      Sys.remove path)
    [ 1; 2; 4 ]

(* A hit this process stored without blame, because it did not tie in
   the search that simulated it, is built and blamed once it ties the
   best of another list; the earliest of the tied entries still wins. *)
let test_unblamed_hit_blamed_on_tie () =
  let graph = Planned.mlp_graph mlp_spec in
  let space = Planner.enumerate (Planner.default_space graph) in
  let scores = exhaustive_scores graph ~world:2 space in
  let best_time, _, _, _ = exhaustive_best scores in
  let cache = Tilelink_exec.Cache.create () in
  let search candidates =
    match
      Planner.search ~cache ~candidates graph ~spec_gpu
        ~make_cluster:(make_cluster 2) ()
    with
    | None -> Alcotest.fail "search returned no plan"
    | Some plan -> plan
  in
  let cold = (search space).Planner.p_outcome.Tune.evaluated in
  let time, exposed, _, c =
    List.find
      (fun (t, _, _, c) ->
        t <> best_time
        && List.exists
             (fun (e : Tune.score) ->
               e.Tune.config = c.Planner.pl_config
               && e.Tune.time = t
               && e.Tune.exposed_comm_us = None)
             cold)
      scores
  in
  let plan =
    search [ c; { c with Planner.pl_chunks = c.Planner.pl_chunks } ]
  in
  let o = plan.Planner.p_outcome in
  Alcotest.(check int) "both entries are hits" 2 o.Tune.cache_hits;
  Alcotest.(check bool) "earlier entry wins" true
    (plan.Planner.p_candidate == c);
  Alcotest.(check (float 0.0)) "time" time plan.Planner.p_time;
  Alcotest.(check (option (float 0.0))) "exposed comm" (Some exposed)
    plan.Planner.p_exposed_comm_us;
  List.iter
    (fun (e : Tune.score) ->
      Alcotest.(check (option (float 0.0))) "every tie blamed" (Some exposed)
        e.Tune.exposed_comm_us)
    o.Tune.evaluated

(* Guard against blame creeping back onto every planner candidate: a
   cold search of the default space of an MLP graph (8192x1024x1024,
   world 8, H800; 192 candidates, 48 simulated) allocates at most 115
   minor words per simulated event, counting every event of every
   cluster it simulates on (110.6 when only the one tie is traced for
   blame; 122.8 when every simulated candidate was). *)
let test_search_allocation_per_event () =
  let world = 8 in
  let graph =
    Planned.mlp_graph { Mlp.m = 8192; k = 1024; n = 1024; world_size = world }
  in
  let clusters = ref [] in
  let make_cluster () =
    let c = Cluster.create Calib.h800 ~world_size:world in
    clusters := c :: !clusters;
    c
  in
  let before = Gc.minor_words () in
  let plan = Planner.search graph ~spec_gpu:Calib.h800 ~make_cluster () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "a plan" true (plan <> None);
  let events =
    List.fold_left
      (fun n c -> n + Tilelink_sim.Engine.executed_events (Cluster.engine c))
      0 !clusters
  in
  let per_event = words /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per event over %d events (bound 115)"
       per_event events)
    true (per_event <= 115.0)

(* A cache file from before blame was measured only for ties stores
   blame on every score.  It still replays: the toy [plan --workload
   mlp -m 8 -k 4 -n 6 --world 2] search it was written by gives the
   fresh search's winner, time and exposed communication from hits
   alone, and scores that do not tie the best come back without
   blame. *)
let test_replays_blamed_cache_file () =
  let machine = Calib.h800 in
  let graph = Planned.graph Planned.Fam_mlp ~m:8 ~k:4 ~n:6 ~world:2 in
  let search cache =
    match
      Planner.search ?cache graph ~spec_gpu:machine
        ~make_cluster:(fun () -> Cluster.create machine ~world_size:2)
        ()
    with
    | None -> Alcotest.fail "search returned no plan"
    | Some plan -> plan
  in
  let fresh = search None in
  let loaded =
    search
      (Some (Tilelink_exec.Cache.create ~path:"plan_cache_all_blamed.json" ()))
  in
  let o = loaded.Planner.p_outcome in
  Alcotest.(check bool) "scores replay from the file" true
    (o.Tune.evaluated <> []
    && o.Tune.cache_hits = List.length o.Tune.evaluated);
  Alcotest.(check string) "winner"
    (Planner.fingerprint fresh.Planner.p_candidate)
    (Planner.fingerprint loaded.Planner.p_candidate);
  Alcotest.(check (float 0.0)) "time" fresh.Planner.p_time
    loaded.Planner.p_time;
  Alcotest.(check (option (float 0.0))) "exposed comm"
    fresh.Planner.p_exposed_comm_us loaded.Planner.p_exposed_comm_us;
  Alcotest.(check bool) "the fresh search's scores" true
    (o.Tune.evaluated = fresh.Planner.p_outcome.Tune.evaluated);
  List.iter
    (fun (e : Tune.score) ->
      Alcotest.(check bool) "blame only on ties" true
        (e.Tune.exposed_comm_us <> None
        = (e.Tune.time = loaded.Planner.p_time)))
    o.Tune.evaluated

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
    let o = plan.Planner.p_outcome in
    Alcotest.(check int)
      "every candidate scored or pruned" (List.length candidates)
      (List.length o.Tune.evaluated + o.Tune.pruned);
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
(* Randomized specs: planner winner == reference, both backends        *)
(* ------------------------------------------------------------------ *)

let qcheck_planner_matches_reference =
  QCheck.Test.make ~count:6
    ~name:"random specs: planner winner analyzer-clean, bits = reference"
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
        List.for_all
          (fun domains ->
            let memory = Mlp.ag_gemm_alloc spec ~seed:23 in
            run_data ?domains ~memory ~world plan.Planner.p_program;
            List.for_all
              (fun rank ->
                Tensor.data (Memory.find memory ~rank ~name:"y")
                = Tensor.data (Mlp.ag_gemm_reference memory spec ~rank))
              (List.init world Fun.id))
          [ None; Some 2 ])

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
    run_data ~memory ~world plan.Planner.p_program;
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
    run_data ~memory ~world:2 plan.Planner.p_program;
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
    run_data ~memory ~world plan.Planner.p_program;
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
(* Makespan lower bound                                                *)
(* ------------------------------------------------------------------ *)

(* The bound may prune only if it never exceeds a simulated makespan:
   on both calibrations and on a topology cluster with slower ranks and
   narrower links. *)
let bound_machines =
  [
    ( "test_machine",
      fun world -> Cluster.create Calib.test_machine ~world_size:world );
    ("h800", fun world -> Cluster.create Calib.h800 ~world_size:world);
    ( "hetero16",
      fun world ->
        Cluster.create ~topology:Topology.hetero16 Calib.h800
          ~world_size:world );
  ]

let admissible ~what program =
  List.for_all
    (fun (machine, make) ->
      let world = Program.world_size program in
      let bound = Bound.makespan (make world) program in
      let makespan = (Runtime.run (make world) program).Runtime.makespan in
      bound <= makespan
      || QCheck.Test.fail_reportf "%s on %s: bound %h > makespan %h" what
           machine bound makespan)
    bound_machines

(* Every candidate that builds and passes the analyzer, as the search
   would see it; at least one must. *)
let admissible_candidates ~what build candidates =
  let clean =
    List.filter_map
      (fun (name, cand) ->
        match build cand with
        | exception Invalid_argument _ -> None
        | program when Analyzer.check program <> Ok () -> None
        | program -> Some (name, program))
      candidates
  in
  (clean <> [] || QCheck.Test.fail_reportf "%s: no candidate built" what)
  && List.for_all
       (fun (name, program) -> admissible ~what:(what ^ " " ^ name) program)
       clean

let test_bound_suite () =
  List.iter
    (fun (name, program) ->
      Alcotest.(check bool) (name ^ ": bound <= makespan") true
        (admissible ~what:name program))
    (Suite.programs ())

let qcheck_bound_planned =
  QCheck.Test.make ~count:4
    ~name:"bound <= makespan: planner default-space candidates"
    QCheck.(
      quad (int_range 0 3) (int_range 1 2) (int_range 2 6) (int_range 2 6))
    (fun (family, world_half, k, n) ->
      let world = 2 * world_half in
      let m = world * 4 in
      let family =
        List.nth Planned.[ Fam_mlp; Fam_softmax; Fam_moe; Fam_fused ] family
      in
      let graph = Planned.graph family ~m ~k ~n ~world in
      admissible_candidates ~what:graph.Planner.g_name
        (fun c -> Planner.synthesize graph c ~spec_gpu)
        (List.map
           (fun c -> (Planner.candidate_to_string c, c))
           (Planner.enumerate (Planner.default_space graph))))

let qcheck_bound_tuned =
  QCheck.Test.make ~count:4
    ~name:"bound <= makespan: tuned AG+GEMM and GEMM+RS candidates"
    QCheck.(triple (int_range 1 2) (int_range 1 2) (int_range 1 4))
    (fun (world_half, rows, cols) ->
      let world = 2 * world_half in
      let m = world * 512 * rows and k = 128 * cols and n = 512 * cols in
      let named configs =
        List.map (fun c -> (Design_space.config_to_string c, c)) configs
      in
      admissible_candidates ~what:"ag_gemm"
        (fun config ->
          Mlp.ag_gemm_program ~config
            { Mlp.m; k; n; world_size = world }
            ~spec_gpu)
        (named (Tuned.ag_gemm_candidates ~world_size:world))
      && admissible_candidates ~what:"gemm_rs"
           (fun config ->
             Mlp.gemm_rs_program ~config
               { Mlp.rs_m = m; rs_k = k; rs_n = n; rs_world = world }
               ~spec_gpu)
           (named (Tuned.gemm_rs_candidates ~world_size:world)))

(* On one worker running one chain of compute tiles, every term of the
   bound but the margin is exact: the simulator adds the same durations
   one at a time, the bound sums them first.  Only the [1 - 1e-9]
   margin keeps that reassociation from lifting the bound above the
   makespan. *)
let qcheck_bound_serial_chain =
  QCheck.Test.make ~count:200 ~name:"bound <= makespan: serial compute chain"
    QCheck.(list_of_size Gen.(int_range 2 12) (float_range 0.01 50.0))
    (fun durations ->
      let compute d =
        Instr.Compute
          {
            label = "c";
            cost = Instr.Fixed_cost d;
            reads = [];
            writes = [];
            action = None;
          }
      in
      let role =
        {
          Program.role_name = "chain";
          resource = Program.Sm_partition 1;
          lane = Tilelink_sim.Trace.Compute_sm;
          tasks =
            [ { Program.label = "t"; instrs = List.map compute durations } ];
        }
      in
      admissible ~what:"chain"
        (Program.create ~name:"chain" ~world_size:1 ~pc_channels:1
           ~peer_channels:1 [| [ role ] |]))

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
          Alcotest.test_case "matches the reference, both backends" `Quick
            test_synthesize_matches_reference;
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
          Alcotest.test_case "warm pass synthesizes only the winner" `Quick
            test_warm_pass_builds_only_the_winner;
          Alcotest.test_case "forced ties: least blame, then earliest" `Quick
            test_forced_ties;
          Alcotest.test_case "an unblamed hit is blamed when it ties" `Quick
            test_unblamed_hit_blamed_on_tie;
          Alcotest.test_case "a cache file blaming every score replays"
            `Quick test_replays_blamed_cache_file;
          Alcotest.test_case "allocation per simulated event" `Quick
            test_search_allocation_per_event;
          qc qcheck_planner_matches_reference;
        ] );
      ( "bound",
        [
          Alcotest.test_case "suite programs admissible" `Quick
            test_bound_suite;
          qc qcheck_bound_planned;
          qc qcheck_bound_tuned;
          qc qcheck_bound_serial_chain;
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
