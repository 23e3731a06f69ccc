(* The five benchmark workloads.

   Each workload is a list of items, and one pass runs every item once.
   An item calls the public functions of the layers it exercises, so no
   library code knows it is being measured.  The same item list serves
   two runs:

   - untraced ([tr = None]): the calls a user of the library makes, bare;
   - traced ([tr = Some _]): the same calls under benchmark-side spans.
     For the two search workloads the traced item re-drives the search
     loop itself ([Tune.search] closures, or the planner's candidate
     loop) with exactly the calls [Tune.search_programs] and
     [Tune.search_planned] make, so build, analysis, simulation,
     telemetry and cache lookups get a span each.

   Items also check their outputs: every sample against the first one,
   the first one against a reference where the workload has one. *)

open Tilelink_machine
open Tilelink_workloads
open Tilelink_core
module Obs = Tilelink_obs
module Exec = Tilelink_exec
module Serve = Tilelink_serve
module Harness = Tilelink_chaos.Harness
module Tensor = Tilelink_tensor.Tensor

type size = Paper | Smoke

(* [time] measures the part of an item the benchmark reports.  Work
   outside it — fresh input memories, reference checks — is not timed. *)
type timer = { time : 'a. (unit -> 'a) -> 'a }
type item = { key : string; run : timer -> unit }

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** distinct failed checks, in order *)
}

let check c name ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if not (List.mem name c.failures) then c.failures <- c.failures @ [ name ]
  end

type instance = {
  items : Tracer.t option -> item list;
  checks : checks;
  counters : (string, float) Hashtbl.t;
      (** per-layer counts, added to by the traced pass only *)
  simulated : unit -> (string * float * string) list;
      (** simulated-clock results of the first pass (name, value, unit);
          called once, after timing, and may run untimed probes *)
  known_defects : unit -> (string * string option) list;
      (** untimed probes of defects known in the library: name, and what
          was observed when the defect reproduced.  They count in
          [failed_frac], not in the benchmark's own checks. *)
}

type t = { name : string; why : string; make : size -> seed:int -> instance }

let spec = Calib.h800
let world = 8
let make_cluster world () = Cluster.create spec ~world_size:world

let new_instance () =
  {
    items = (fun _ -> []);
    checks = { attempted = 0; failed = 0; failures = [] };
    counters = Hashtbl.create 32;
    simulated = (fun () -> []);
    known_defects = (fun () -> []);
  }

let add counters name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

(* Counts only the traced pass makes, so they are per pass. *)
let count tr counters name v = if tr <> None then add counters name v

(* The first sample of an item is the one every later sample must match. *)
let same checks name first v =
  match !first with
  | None -> first := Some v
  | Some v0 -> check checks name (v0 = v)

let seconds f =
  let t0 = Tracer.now () in
  let r = f () in
  (r, Tracer.now () -. t0)

let geomean = Tilelink_sim.Stats.geomean

(* ------------------------------------------------------------------ *)
(* Search instrumentation shared by autotune_paper and plan_paper      *)
(* ------------------------------------------------------------------ *)

(* [Tune]'s program evaluator, one layer per span: simulate with
   telemetry on a fresh cluster, then attribute the makespan.  The probe
   re-runs the program without telemetry; its duration and event count
   give the DES cost alone, and the difference is the telemetry cost. *)
let traced_evaluate tr counters ~item program =
  let world = Program.world_size program in
  let telemetry = Obs.Telemetry.create () in
  let r, traced_s =
    seconds (fun () ->
        Tracer.span tr ~layer:"runtime" ~name:"Runtime.run" ~item (fun () ->
            Runtime.run ~telemetry (make_cluster world ()) program))
  in
  let spans = Obs.Span.spans (Obs.Telemetry.spans telemetry) in
  let attribution =
    Tracer.span tr ~layer:"obs" ~name:"Attribution.of_spans" ~item (fun () ->
        Obs.Attribution.of_spans ~makespan:r.Runtime.makespan spans)
  in
  let events, probe_s =
    seconds (fun () ->
        Tracer.span tr ~layer:Tracer.probe ~name:"Runtime.run(untraced)" ~item
          (fun () ->
            let cluster = make_cluster world () in
            ignore (Runtime.run cluster program);
            Tilelink_sim.Engine.executed_events (Cluster.engine cluster)))
  in
  add counters "obs.spans" (float_of_int (List.length spans));
  add counters "sim.events" (float_of_int events);
  add counters "sim.probe_s" probe_s;
  add counters "obs.telemetry_s" (traced_s -. probe_s);
  ( r.Runtime.makespan,
    attribution.Obs.Attribution.buckets.Obs.Attribution.exposed_comm )

let traced_build tr counters ~item ~name build =
  let program = Tracer.span tr ~layer:"build" ~name ~item build in
  add counters "build.instrs" (float_of_int (Program.instr_count program));
  program

let analyzer_clean program = Result.is_ok (Analyzer.check program)

(* ------------------------------------------------------------------ *)
(* autotune_paper                                                      *)
(* ------------------------------------------------------------------ *)

type tune_job = {
  tj_key : string;
  tj_workload : string;  (** cache identity, spelled as [Tuned] does *)
  tj_build : Design_space.config -> Program.t;
  tj_candidates : Design_space.config list;
  tj_nonoverlap_us : float;
}

let tune_jobs shapes =
  List.concat_map
    (fun (sh : Shapes.mlp) ->
      let m = sh.Shapes.s and h = sh.Shapes.h and ipr = sh.Shapes.i / world in
      let ag = { Mlp.m; k = h; n = 2 * ipr; world_size = world } in
      let rs = { Mlp.rs_m = m; rs_k = ipr; rs_n = h; rs_world = world } in
      [
        {
          tj_key = sh.Shapes.mlp_name ^ ":ag_gemm";
          tj_workload = Printf.sprintf "ag_gemm:m=%d,k=%d,n=%d" m h (2 * ipr);
          tj_build = (fun config -> Mlp.ag_gemm_program ~config ag ~spec_gpu:spec);
          tj_candidates = Tuned.ag_gemm_candidates ~world_size:world;
          tj_nonoverlap_us =
            Tilelink_baselines.Nonoverlap.ag_gemm_time spec ~world_size:world
              ~m ~k:h ~n:(2 * ipr);
        };
        {
          tj_key = sh.Shapes.mlp_name ^ ":gemm_rs";
          tj_workload = Printf.sprintf "gemm_rs:m=%d,k=%d,n=%d" m ipr h;
          tj_build = (fun config -> Mlp.gemm_rs_program ~config rs ~spec_gpu:spec);
          tj_candidates = Tuned.gemm_rs_candidates ~world_size:world;
          tj_nonoverlap_us =
            Tilelink_baselines.Nonoverlap.gemm_rs_time spec ~world_size:world
              ~m ~k:ipr ~n:h;
        };
      ])
    shapes

let autotune_make size ~seed =
  let inst = new_instance () in
  let c = inst.checks and counters = inst.counters in
  let mlp, moe =
    match size with
    | Paper ->
      ( List.filteri (fun i _ -> i < 1) Shapes.mlp_configs,
        List.map
          (fun (sh : Shapes.moe) ->
            ( sh.Shapes.moe_name,
              Tilelink_baselines.Moe_baselines.spec_of_shape sh
                ~world_size:world ))
          Shapes.moe_configs )
    | Smoke ->
      ( [
          { Shapes.mlp_name = "toy"; s = 1024; h = 512; i = 2048;
            source_model = "toy" };
        ],
        [
          ( "toy",
            {
              Moe.tokens = 1024;
              hidden = 256;
              intermediate = 512;
              experts = 8;
              topk = 2;
              world_size = world;
            } );
        ] )
  in
  let jobs = tune_jobs mlp in
  let moe = List.map (fun (name, s) -> (name, s, Moe.routing s ~seed)) moe in
  let tuned = List.map (fun j -> (j, ref None)) jobs in
  let moe_runs = List.map (fun m -> (m, ref None)) moe in
  let next_candidate = ref 0 in
  let tune_item tr (j, first) =
    let key = "tune:" ^ j.tj_key in
    let untraced timer =
      match
        timer.time (fun () ->
            Tune.search_programs ~workload:j.tj_workload ~build:j.tj_build
              ~make_cluster:(make_cluster world) j.tj_candidates)
      with
      | None -> check c (key ^ ": no candidate built") false
      | Some o ->
        check c (key ^ ": candidate rejected by the analyzer")
          (o.Tune.skipped_race = 0);
        check c (key ^ ": candidate deadlocked") (o.Tune.skipped_deadlock = 0);
        check c (key ^ ": candidate invalid while simulating")
          (o.Tune.skipped_invalid = 0);
        check c (key ^ ": winner not analyzer-clean")
          (analyzer_clean o.Tune.best.Tune.candidate);
        same c (key ^ ": winner changed between passes") first
          ( Design_space.fingerprint o.Tune.best.Tune.config,
            o.Tune.best.Tune.time )
    in
    let traced tr timer =
      let current = ref (-1) in
      let outcome =
        timer.time (fun () ->
            Tracer.span tr ~layer:"tune" ~name:"Tune.search" (fun () ->
                Tune.search
                  ~analyze:(fun p ->
                    Tracer.span tr ~layer:"analyzer"
                      ~name:"Analyzer.check_message" ~item:!current (fun () ->
                        Analyzer.check_message p))
                  ~build:(fun config ->
                    incr next_candidate;
                    current := !next_candidate;
                    traced_build tr counters ~item:!current ~name:"Mlp program"
                      (fun () -> j.tj_build config))
                  ~evaluate:(fun p ->
                    fst (traced_evaluate tr counters ~item:!current p))
                  j.tj_candidates))
      in
      add counters "tune.candidates"
        (float_of_int (List.length j.tj_candidates));
      match outcome with
      | None -> check c (key ^ ": no candidate built (traced)") false
      | Some o ->
        add counters "tune.skipped_build" (float_of_int o.Tune.skipped_build);
        add counters "tune.skipped_race" (float_of_int o.Tune.skipped_race);
        check c (key ^ ": traced winner differs from untraced winner")
          (!first
          = Some
              ( Design_space.fingerprint o.Tune.best.Tune.config,
                o.Tune.best.Tune.time ))
    in
    {
      key;
      run = (match tr with None -> untraced | Some tr -> traced tr);
    }
  in
  let moe_item tr ((name, s, route), first) =
    let key = "moe:" ^ name in
    let part build =
      let program =
        Tracer.wrap tr ~layer:"build" ~name:"Moe program" build
      in
      if tr <> None then
        add counters "build.instrs" (float_of_int (Program.instr_count program));
      (Tracer.wrap tr ~layer:"runtime" ~name:"Runtime.run" (fun () ->
           Runtime.run (make_cluster world ()) program))
        .Runtime.makespan
    in
    {
      key;
      run =
        (fun timer ->
          let makespans =
            timer.time (fun () ->
                let p1 =
                  part (fun () -> Moe.part1_program s route ~spec_gpu:spec)
                in
                (p1, part (fun () -> Moe.part2_program s route ~spec_gpu:spec)))
          in
          same c (key ^ ": makespan changed between passes") first makespans);
    }
  in
  let simulated () =
    let tune =
      List.filter_map
        (fun (j, first) ->
          Option.map (fun (_, t) -> (t, j.tj_nonoverlap_us)) !first)
        tuned
    in
    let moe =
      List.concat_map
        (fun ((_, s, route), first) ->
          match !first with
          | None -> []
          | Some (p1, p2) ->
            [
              (p1, Tilelink_baselines.Moe_baselines.cublas_part1 spec s route);
              (p2, Tilelink_baselines.Moe_baselines.cublas_part2 spec s route);
            ])
        moe_runs
    in
    let all = tune @ moe in
    [
      ("sim_makespan_us", List.fold_left (fun a (t, _) -> a +. t) 0. all, "us");
      ( "sim_speedup_vs_nonoverlap",
        geomean (List.map (fun (t, base) -> base /. t) all),
        "x" );
    ]
  in
  {
    inst with
    items =
      (fun tr ->
        List.map (tune_item tr) tuned @ List.map (moe_item tr) moe_runs);
    simulated;
  }

let autotune_paper =
  {
    name = "autotune_paper";
    why =
      "Fig 8/9 compile path: cold autotune of MLP-1 plus MoE-1..6 runs; \
       build, analyzer, DES and telemetry do nearly all the work";
    make = autotune_make;
  }

(* ------------------------------------------------------------------ *)
(* plan_paper                                                          *)
(* ------------------------------------------------------------------ *)

let warm_passes = 4

type plan_job = {
  pj_key : string;
  pj_graph : Planner.graph;
  pj_candidates : Planner.candidate list;
  pj_nonoverlap_us : float;
}

(* [Planner.better]: least makespan, then least exposed communication,
   earliest candidate on a full tie. *)
let better (_, ta, xa) (_, tb, xb) = ta < tb || (ta = tb && xa < xb)

(* The cache entry [Tune] writes for an evaluation. *)
let cached_to_json (time, exposed) =
  Obs.Json.Obj
    [
      ("v", Obs.Json.Num (float_of_int Tune.cache_schema_version));
      ("time", Obs.Json.Num time);
      ("exposed_comm_us", Obs.Json.Num exposed);
    ]

let cached_of_json json =
  let num k = Option.bind (Obs.Json.member k json) Obs.Json.to_float in
  match (num "time", num "exposed_comm_us") with
  | Some t, Some x -> Some (t, x)
  | _ -> None

(* The candidate loop [Planner.search] runs through
   [Tune.search_planned], call for call: every cache lookup first, then
   synthesize → analyze → simulate per candidate, then the stores.
   Returns the winner and how many candidates failed after analysis. *)
let traced_plan tr counters ~next_candidate cache j =
  let machine = Printf.sprintf "%s|world=%d" (Spec.fingerprint spec) world in
  let workload = "plan:" ^ Planner.graph_fingerprint j.pj_graph in
  let keyed =
    List.map
      (fun cand ->
        incr next_candidate;
        let item = !next_candidate in
        let key =
          Exec.Cache.fingerprint
            (String.concat "|" [ workload; machine; Planner.fingerprint cand ])
        in
        let cached =
          Tracer.span tr ~layer:"cache" ~name:"Cache.find" ~item (fun () ->
              Exec.Cache.find cache key)
        in
        (item, cand, key, Option.bind cached cached_of_json))
      j.pj_candidates
  in
  let failed = ref 0 in
  let results =
    List.filter_map
      (fun (item, cand, key, cached) ->
        match
          traced_build tr counters ~item ~name:"Planner.synthesize" (fun () ->
              Planner.synthesize j.pj_graph cand ~spec_gpu:spec)
        with
        | exception Invalid_argument _ -> None
        | program -> (
          match
            Tracer.span tr ~layer:"analyzer" ~name:"Analyzer.check_message"
              ~item (fun () -> Analyzer.check_message program)
          with
          | Error _ ->
            incr failed;
            None
          | Ok () -> (
            match cached with
            | Some measured -> Some (cand, None, measured)
            | None -> (
              match traced_evaluate tr counters ~item program with
              | exception (Invalid_argument _ | Tilelink_sim.Engine.Deadlock _)
                ->
                incr failed;
                None
              | measured -> Some (cand, Some key, measured)))))
      keyed
  in
  List.iter
    (fun (_, key, measured) ->
      Option.iter
        (fun key -> Exec.Cache.add cache key (cached_to_json measured))
        key)
    results;
  let scored = List.map (fun (cand, _, (t, x)) -> (cand, t, x)) results in
  let winner =
    match scored with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left (fun acc e -> if better e acc then e else acc) first rest)
  in
  (winner, !failed)

let plan_make size ~seed:_ =
  let inst = new_instance () in
  let c = inst.checks and counters = inst.counters in
  let shapes =
    match size with
    | Paper ->
      List.map
        (fun (sh : Shapes.mlp) ->
          ( sh.Shapes.mlp_name,
            { Mlp.m = sh.Shapes.s; k = sh.Shapes.h; n = 2 * (sh.Shapes.i / world);
              world_size = world } ))
        (List.filteri (fun i _ -> i < 3) Shapes.mlp_configs)
    | Smoke -> [ ("toy", { Mlp.m = 1024; k = 256; n = 128; world_size = world }) ]
  in
  let jobs =
    List.map
      (fun (name, (s : Mlp.ag_gemm_spec)) ->
        let graph = Planned.mlp_graph s in
        let candidates = Planner.enumerate (Planner.default_space graph) in
        ( {
            pj_key = name;
            pj_graph = graph;
            pj_candidates =
              (match size with
              | Paper -> candidates
              | Smoke -> List.filteri (fun i _ -> i < 16) candidates);
            pj_nonoverlap_us =
              Tilelink_baselines.Nonoverlap.ag_gemm_time spec ~world_size:world
                ~m:s.Mlp.m ~k:s.Mlp.k ~n:s.Mlp.n;
          },
          ref None ))
      shapes
  in
  let next_candidate = ref 0 in
  let item tr (j, first) =
    let key = "plan:" ^ j.pj_key in
    let untraced timer =
      let cache = Exec.Cache.create () in
      let search () =
        Planner.search ~cache ~candidates:j.pj_candidates j.pj_graph
          ~spec_gpu:spec ~make_cluster:(make_cluster world) ()
      in
      let cold, warm =
        timer.time (fun () ->
            let cold = search () in
            (cold, List.init warm_passes (fun _ -> search ())))
      in
      match cold with
      | None -> check c (key ^ ": no candidate passed analysis") false
      | Some p ->
        let o = p.Planner.p_outcome in
        check c (key ^ ": candidate rejected by the analyzer")
          (o.Tune.skipped_race = 0);
        check c (key ^ ": candidate deadlocked") (o.Tune.skipped_deadlock = 0);
        check c (key ^ ": candidate invalid while simulating")
          (o.Tune.skipped_invalid = 0);
        check c (key ^ ": winner not analyzer-clean")
          (analyzer_clean p.Planner.p_program);
        let winner (p : Planner.plan) =
          (Planner.fingerprint p.Planner.p_candidate, p.Planner.p_time)
        in
        List.iter
          (fun w ->
            check c (key ^ ": warm winner differs from cold winner")
              (Option.map winner w = Some (winner p));
            check c (key ^ ": warm pass missed the cache")
              (match w with
              | Some w ->
                w.Planner.p_outcome.Tune.cache_hits
                = List.length o.Tune.evaluated
              | None -> false))
          warm;
        same c (key ^ ": winner changed between passes") first (winner p)
    in
    let traced tr timer =
      let cache = Exec.Cache.create () in
      let runs =
        timer.time (fun () ->
            List.init (1 + warm_passes) (fun _ ->
                Tracer.span tr ~layer:"planner" ~name:"Planner.search" (fun () ->
                    traced_plan tr counters ~next_candidate cache j)))
      in
      add counters "planner.candidates"
        (float_of_int ((1 + warm_passes) * List.length j.pj_candidates));
      add counters "cache.hits" (float_of_int (Exec.Cache.hits cache));
      add counters "cache.misses" (float_of_int (Exec.Cache.misses cache));
      List.iter
        (fun (winner, failed) ->
          check c (key ^ ": candidate failed after synthesis (traced)")
            (failed = 0);
          check c (key ^ ": traced winner differs from untraced winner")
            (Option.map (fun (cand, t, _) -> (Planner.fingerprint cand, t)) winner
            = !first))
        runs
    in
    { key; run = (match tr with None -> untraced | Some tr -> traced tr) }
  in
  let simulated () =
    let rows =
      List.filter_map
        (fun (j, first) -> Option.map (fun (_, t) -> (t, j.pj_nonoverlap_us)) !first)
        jobs
    in
    [
      ("sim_makespan_us", List.fold_left (fun a (t, _) -> a +. t) 0. rows, "us");
      ( "sim_speedup_vs_nonoverlap",
        geomean (List.map (fun (t, base) -> base /. t) rows),
        "x" );
    ]
  in
  { inst with items = (fun tr -> List.map (item tr) jobs); simulated }

let plan_paper =
  {
    name = "plan_paper";
    why =
      "planner search on Table-4 AG+GEMM shapes MLP-1..3, one cold and four \
       warm passes over one in-memory cache: synthesis, analyzer and cache";
    make = plan_make;
  }

(* ------------------------------------------------------------------ *)
(* serve_ladder                                                        *)
(* ------------------------------------------------------------------ *)

let slo = { Serve.Slo.ttft_us = 5_000.; tpot_us = 2_000. }

let serve_config chaos =
  {
    Serve.Server.machine = spec;
    topology = None;
    world_size = world;
    head_dim = 64;
    slo;
    queue_capacity = 32;
    max_batch = 16;
    kv_capacity = 8192;
    timeout_us = 50_000.;
    chaos;
  }

let shed (r : Serve.Server.report) =
  r.Serve.Server.r_shed_queue_full + r.Serve.Server.r_shed_deadline
  + r.Serve.Server.r_shed_timeout

let serve_make size ~seed =
  let inst = new_instance () in
  let c = inst.checks and counters = inst.counters in
  (* The timed rates sit clearly below or clearly above capacity.  Host
     cost per run roughly triples once a run sheds, and where capacity
     falls (6.5k-9k rps) moves with the trace seed, so the knee rates
     would make the pass cost depend on the seed: they run once, untimed,
     after the timed loop, and only feed max_rate_rps.  The crash run is
     one fixed scenario (trace and chaos seed 1): its host time and peak
     memory are set by the batch in flight when the rank dies, which
     moved them by 2x from seed to seed. *)
  let requests, timed_rates, knee_rates =
    match size with
    | Paper ->
      ( 10_000,
        [ 2_000.; 4_000.; 6_000.; 10_000.; 12_000. ],
        [ 7_000.; 7_500.; 8_000.; 8_500.; 9_000. ] )
    | Smoke -> (10, [ 4_000.; 12_000. ], [])
  in
  let (runs, knee), gen_s =
    seconds (fun () ->
        let trace ?(seed = seed) rate =
          Serve.Trace_gen.generate ~seed ~requests
            (Serve.Trace_gen.Poisson { rate_rps = rate })
        in
        ( List.map
            (fun rate -> (Printf.sprintf "%g" rate, rate, trace rate, None))
            timed_rates
          @ [
              ( "crash@2000",
                2_000.,
                trace ~seed:1 2_000.,
                Some { Serve.Server.ch_seed = 1; ch_crash_ranks = 1 } );
            ],
          List.map (fun rate -> (rate, trace rate)) knee_rates ))
  in
  Hashtbl.replace counters "serve.trace_gen_s" gen_s;
  (* Each run keeps its first report: later samples must reproduce it
     byte for byte, and the simulated metrics read it. *)
  let runs = List.map (fun r -> (r, ref None)) runs in
  let item tr ((name, _, trace, chaos), first) =
    let key = "serve:" ^ name in
    {
      key;
      run =
        (fun timer ->
          let r =
            timer.time (fun () ->
                Tracer.wrap tr ~layer:"serve" ~name:"Server.run" (fun () ->
                    Serve.Server.run (serve_config chaos) trace))
          in
          check c (key ^ ": request conservation violated")
            (Serve.Server.conservation_ok r);
          (match !first with
          | None -> first := Some r
          | Some r0 ->
            check c (key ^ ": report changed between passes")
              (Serve.Server.report_to_string r0
              = Serve.Server.report_to_string r));
          count tr counters "serve.steps" (float_of_int r.Serve.Server.r_steps);
          count tr counters "serve.requests"
            (float_of_int r.Serve.Server.r_offered);
          count tr counters "serve.shed" (float_of_int (shed r)));
    }
  in
  let simulated () =
    let knee =
      List.map
        (fun (rate, trace) ->
          let r = Serve.Server.run (serve_config None) trace in
          check c
            (Printf.sprintf "serve:%g: request conservation violated" rate)
            (Serve.Server.conservation_ok r);
          (rate, r))
        knee
    in
    let ladder =
      List.filter_map
        (fun ((_, rate, _, chaos), first) ->
          match (chaos, !first) with
          | None, Some r -> Some (rate, r)
          | _ -> None)
        runs
      @ knee
    in
    let at rate = List.assoc_opt rate ladder in
    let ttft f =
      match at 4_000. with Some r -> f r.Serve.Server.r_ttft | None -> 0.
    in
    let met =
      List.filter
        (fun (_, r) ->
          r.Serve.Server.r_ttft.Serve.Slo.d_p99 <= slo.Serve.Slo.ttft_us
          && shed r = 0)
        ladder
    in
    [
      ("ttft_p50_us", ttft (fun d -> d.Serve.Slo.d_p50), "us");
      ("ttft_p99_us", ttft (fun d -> d.Serve.Slo.d_p99), "us");
      ( "tpot_p99_us",
        (match at 4_000. with
        | Some r -> r.Serve.Server.r_tpot.Serve.Slo.d_p99
        | None -> 0.),
        "us" );
      ( "max_rate_rps",
        List.fold_left (fun a (rate, _) -> Float.max a rate) 0. met,
        "rps" );
      ( "overload_goodput_rps",
        (match at 12_000. with Some r -> r.Serve.Server.r_goodput_rps | None -> 0.),
        "rps" );
    ]
  in
  { inst with items = (fun tr -> List.map (item tr) runs); simulated }

let serve_ladder =
  {
    name = "serve_ladder";
    why =
      "10k-request open-loop Poisson serve ladder 2k..12k rps plus a crash \
       run; the step-cost memo idles the DES, so the serve loop dominates";
    make = serve_make;
  }

(* ------------------------------------------------------------------ *)
(* execute_data                                                        *)
(* ------------------------------------------------------------------ *)

let domains = 2

(* Every program here overwrites its outputs without reading them, so
   one seeded memory per case serves every run of both backends; a run
   needs only a fresh program (task closures carry state). *)
type case = {
  cs_key : string;
  cs_world : int;
  cs_memory : Memory.t;
  cs_build : unit -> Program.t;
  cs_out : string;  (** output buffer, every rank *)
  cs_reference : Memory.t -> rank:int -> Tensor.t;
  cs_atol : float option;
}

let outputs case memory =
  List.init case.cs_world (fun rank ->
      Array.copy (Tensor.data (Memory.find memory ~rank ~name:case.cs_out)))

let bits_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              x y)
       a b

let ring_config ~world ~comm ~compute ~binding =
  let ring = Tile.Ring_from_self { segments = world } in
  {
    Design_space.comm_tile = comm;
    compute_tile = compute;
    comm_order = ring;
    compute_order = ring;
    binding;
    stages = 2;
    micro_block = 0;
  }

let execute_cases size ~seed =
  let w = 4 in
  (* Paper: extents at which one pass takes a few seconds and the
     interpreter's peak heap stays near a gigabyte; the references
     recompute every rank's partials, so they cost more than the runs.
     Smoke: the same kernels at toy extents with tiles that divide
     them. *)
  let m, ag_k, ag_n, rs_k, rs_n, tile, attn, moe_spec, moe_config =
    match size with
    | Paper ->
      ( 512, 1024, 256, 256, 1024, 128,
        { Attention.batch_heads = 4; seq = 512; head_dim = 64; world_size = w;
          causal = false },
        { Moe.tokens = 512; hidden = 256; intermediate = 512; experts = 8;
          topk = 2; world_size = w },
        Moe.default_part2_config )
    | Smoke ->
      ( 128, 32, 32, 16, 32, 16,
        { Attention.batch_heads = 2; seq = 128; head_dim = 16; world_size = w;
          causal = false },
        { Moe.tokens = 64; hidden = 16; intermediate = 32; experts = 4;
          topk = 2; world_size = w },
        { Moe.gg_tile_rows = 8; reduce_tile_rows = 8; rs_tile_rows = 8;
          reduce_sms = 1; rs_sms = 1 } )
  in
  let ag = { Mlp.m; k = ag_k; n = ag_n; world_size = w } in
  let ag_config =
    ring_config ~world:w ~comm:(tile, tile) ~compute:(tile, tile)
      ~binding:Design_space.Comm_on_dma
  in
  let rs = { Mlp.rs_m = m; rs_k; rs_n; rs_world = w } in
  let rs_config =
    {
      (ring_config ~world:w ~comm:(tile, rs_n / 2) ~compute:(tile, tile)
         ~binding:(Design_space.Comm_on_sm 20))
      with
      Design_space.comm_order = Tile.Row_major;
      compute_order = Tile.Ring_prev_first { segments = w };
    }
  in
  let attn_config = { Attention.q_tile = tile; kv_tile = tile } in
  let route = Moe.routing moe_spec ~seed in
  (* The first case is AG+GEMM; its per-rank GEMM shape is returned for
     the bare-GEMM probe. *)
  ( [
    {
      cs_key = "ag_gemm";
      cs_world = w;
      cs_memory = Mlp.ag_gemm_alloc ag ~seed;
      cs_build = (fun () -> Mlp.ag_gemm_program ~config:ag_config ag ~spec_gpu:spec);
      cs_out = "y";
      cs_reference = (fun mem ~rank -> Mlp.ag_gemm_reference mem ag ~rank);
      cs_atol = None;
    };
    {
      cs_key = "gemm_rs";
      cs_world = w;
      cs_memory = Mlp.gemm_rs_alloc rs ~seed;
      cs_build = (fun () -> Mlp.gemm_rs_program ~config:rs_config rs ~spec_gpu:spec);
      cs_out = "out";
      cs_reference = (fun mem ~rank -> Mlp.gemm_rs_reference mem rs ~rank);
      cs_atol = None;
    };
    {
      cs_key = "attention";
      cs_world = w;
      cs_memory = Attention.alloc attn ~seed;
      cs_build =
        (fun () -> Attention.program ~config:attn_config attn ~spec_gpu:spec);
      cs_out = "o";
      cs_reference = (fun mem ~rank -> Attention.reference mem attn ~rank);
      cs_atol = None;
    };
    {
      cs_key = "moe_part2";
      cs_world = w;
      cs_memory = Moe.part2_alloc moe_spec ~seed;
      cs_build =
        (fun () ->
          Moe.part2_program ~config:moe_config moe_spec route ~spec_gpu:spec);
      cs_out = "out";
      cs_reference =
        (fun mem ~rank -> Moe.part2_reference mem moe_spec route ~rank);
      cs_atol = Some 1e-8;
    };
  ],
    (m, ag_k, ag_n) )

(* The MoE part-2 default config (1024 tokens, h=256, i=512, E=8,
   topk=2, world 4) on a machine with fewer SMs than its worker caps
   (Calib.test_machine): there the sequential interpreter's output
   differs from [Moe.part2_reference] on rank 2, rank 3 or both at most
   seeds, while the parallel backend matches it.  The timed case runs
   on the paper machine, where both backends agree with the reference,
   so this untimed probe is what reproduces the defect. *)
let moe_part2_test_machine ~seed =
  let s =
    { Moe.tokens = 1024; hidden = 256; intermediate = 512; experts = 8;
      topk = 2; world_size = 4 }
  in
  let route = Moe.routing s ~seed in
  let machine = Calib.test_machine in
  let program () = Moe.part2_program s route ~spec_gpu:machine in
  let seq = Moe.part2_alloc s ~seed and par = Moe.part2_alloc s ~seed in
  ignore
    (Runtime.run ~data:true ~memory:seq
       (Cluster.create machine ~world_size:4)
       (program ()));
  ignore (Parallel.run ~domains ~memory:par (program ()));
  (* Both memories hold the same seeded inputs, so one reference per
     rank serves both outputs. *)
  let references =
    List.init 4 (fun rank -> Moe.part2_reference seq s route ~rank)
  in
  let wrong memory =
    List.concat
      (List.mapi
         (fun rank reference ->
           if
             Tilelink_tensor.Check.close ~atol:1e-8 reference
               (Memory.find memory ~rank ~name:"out")
           then []
           else [ rank ])
         references)
  in
  let ranks rs = String.concat "," (List.map string_of_int rs) in
  let observed =
    match (wrong seq, wrong par) with
    | [], [] -> None
    | seq, par ->
      Some
        (Printf.sprintf
           "Moe.part2_program (default config, 1024 tokens) on \
            Calib.test_machine differs from Moe.part2_reference on rank(s) \
            [%s] sequentially and [%s] on the parallel backend"
           (ranks seq) (ranks par))
  in
  [ ("moe_part2_seq_vs_reference", observed) ]

let execute_make size ~seed =
  let inst = new_instance () in
  let c = inst.checks and counters = inst.counters in
  let cases, (m, k, n) = execute_cases size ~seed in
  let cases = List.map (fun cs -> (cs, ref None)) cases in
  (* [Linalg.gemm] alone on the AG+GEMM case's per-rank shape. *)
  let gemm_probe tr =
    let shape dims = Tilelink_tensor.Shape.of_list dims in
    let a = Tensor.random ~seed (shape [ m; k ])
    and b = Tensor.random ~seed:(seed + 1) (shape [ k; n ]) in
    fun () ->
      let (), s =
        seconds (fun () ->
            Tracer.span tr ~layer:Tracer.probe ~name:"Linalg.gemm" (fun () ->
                ignore (Tilelink_tensor.Linalg.gemm a b)))
      in
      Hashtbl.replace counters "tensor.gemm_gflops"
        (Tilelink_tensor.Linalg.gemm_flops ~m ~n ~k /. s /. 1e9)
  in
  let seq_item tr probe (cs, first) =
    let key = "seq:" ^ cs.cs_key in
    {
      key;
      run =
        (fun timer ->
          let memory = cs.cs_memory and program = cs.cs_build () in
          let cluster = Cluster.create spec ~world_size:cs.cs_world in
          timer.time (fun () ->
              Tracer.wrap tr ~layer:"tensor" ~name:"Runtime.run(data)" (fun () ->
                  ignore (Runtime.run ~data:true ~memory cluster program));
              Option.iter (fun p -> p ()) probe);
          let outs = outputs cs memory in
          match !first with
          | None ->
            first := Some outs;
            List.iter
              (fun rank ->
                check c (key ^ ": output differs from the reference")
                  (Tilelink_tensor.Check.close ?atol:cs.cs_atol
                     (cs.cs_reference memory ~rank)
                     (Memory.find memory ~rank ~name:cs.cs_out)))
              (List.init cs.cs_world Fun.id)
          | Some first ->
            check c (key ^ ": output changed between passes")
              (bits_equal first outs));
    }
  in
  let par_item tr (cs, first) =
    let key = "par:" ^ cs.cs_key in
    {
      key;
      run =
        (fun timer ->
          let memory = cs.cs_memory and program = cs.cs_build () in
          let _, r =
            timer.time (fun () ->
                Tracer.wrap tr ~layer:"parallel" ~name:"Parallel.run" (fun () ->
                    Parallel.run ~domains ~memory program))
          in
          let stats = r.Parallel.p_stats in
          count tr counters "parallel.busy_s"
            (Array.fold_left
               (fun a d -> a +. d.Exec.Backend.d_busy_s)
               0. stats.Exec.Backend.per_domain);
          count tr counters "parallel.parks"
            (float_of_int stats.Exec.Backend.total_parks);
          check c (key ^ ": output differs bitwise from sequential")
            (Option.map (bits_equal (outputs cs memory)) !first = Some true));
    }
  in
  let items tr =
    List.concat
      (List.mapi
         (fun i case ->
           let probe =
             match tr with Some tr when i = 0 -> Some (gemm_probe tr) | _ -> None
           in
           [ seq_item tr probe case; par_item tr case ])
         cases)
  in
  {
    inst with
    items;
    known_defects =
      (fun () -> match size with Paper -> moe_part2_test_machine ~seed | Smoke -> []);
  }

let execute_data =
  {
    name = "execute_data";
    why =
      "real tensors at world 4 on the sequential interpreter and a 2-domain \
       parallel backend; tensor kernels and the domain backend dominate";
    make = execute_make;
  }

(* ------------------------------------------------------------------ *)
(* failover_topology                                                   *)
(* ------------------------------------------------------------------ *)

let failover_make size ~seed =
  let inst = new_instance () in
  let c = inst.checks and counters = inst.counters in
  let trials = match size with Paper -> 20 | Smoke -> 2 in
  let island = Topology.ranks_per_island Topology.islands2x8 in
  let sweeps =
    List.map
      (fun cfg -> (cfg, ref None))
      [
        ("mlp/flat8", Harness.Mlp_ag_gemm, Some Topology.flat8, 1);
        ("mlp/hetero16", Harness.Mlp_ag_gemm, Some Topology.hetero16, 1);
        ("mlp/islands2x8", Harness.Mlp_ag_gemm, Some Topology.islands2x8, island);
        ("moe/flat", Harness.Moe_part2, None, 1);
        ("attention/flat", Harness.Attention_ag, None, 1);
      ]
  in
  let item tr ((name, workload, topology, crash_ranks), first) =
    let key = "failover:" ^ name in
    {
      key;
      run =
        (fun timer ->
          let s =
            timer.time (fun () ->
                Tracer.wrap tr ~layer:"chaos" ~name:"Harness.run_trials" (fun () ->
                    Harness.run_trials ?topology ~crash_ranks ~workload ~seed
                      ~trials ()))
          in
          List.iter
            (fun t ->
              check c (key ^ ": trial did not fail over")
                (t.Harness.classification = Harness.Failed_over);
              check c (key ^ ": numerics differ after failover")
                t.Harness.numerics_ok)
            s.Harness.s_trials;
          (match !first with
          | None -> first := Some s
          | Some s0 ->
            check c (key ^ ": summary changed between passes")
              (Harness.summary_to_string s0 = Harness.summary_to_string s));
          count tr counters "chaos.trials" (float_of_int trials);
          count tr counters "chaos.failed_over"
            (float_of_int s.Harness.s_failed_over);
          count tr counters "chaos.replayed_tiles"
            (float_of_int
               (List.fold_left
                  (fun a t -> a + t.Harness.replayed_tiles)
                  0 s.Harness.s_trials));
          count tr counters "chaos.cross_island_replays"
            (float_of_int s.Harness.s_cross_island_replays));
    }
  in
  let simulated () =
    let latencies =
      List.concat_map
        (fun (_, first) ->
          match !first with Some s -> s.Harness.s_failover_latencies | None -> [])
        sweeps
    in
    let pct p =
      if latencies = [] then 0. else Tilelink_sim.Stats.percentile p latencies
    in
    [ ("recovery_p50_us", pct 50., "us"); ("recovery_p95_us", pct 95., "us") ]
  in
  { inst with items = (fun tr -> List.map (item tr) sweeps); simulated }

let failover_topology =
  {
    name = "failover_topology";
    why =
      "20 forced-crash trials per topology: mlp on flat8, hetero16 and a \
       whole-island crash on islands2x8, moe and attention flat";
    make = failover_make;
  }

let all =
  [ autotune_paper; plan_paper; serve_ladder; execute_data; failover_topology ]
