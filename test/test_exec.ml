(* Tests for the multicore evaluation subsystem: the domain pool, the
   content-addressed evaluation cache, and the parallel autotuner
   built on top of them. *)

open Tilelink_exec
open Tilelink_core
open Tilelink_machine
open Tilelink_workloads
module Json = Tilelink_obs.Json

let unwrap results = List.map Pool.get results

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let pool = Pool.create ~domains:4 () in
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int))
    "parallel map preserves input order" expected
    (unwrap (Pool.map (Some pool) (fun x -> x * x) xs));
  Alcotest.(check (list int))
    "sequential fallback identical" expected
    (unwrap (Pool.map None (fun x -> x * x) xs))

let test_pool_captures_exceptions () =
  let pool = Pool.create ~domains:2 () in
  let f x = if x mod 3 = 0 then failwith (string_of_int x) else x in
  let check_results results =
    List.iteri
      (fun i r ->
        match r with
        | Ok v -> Alcotest.(check int) "value at index" i v
        | Error (Failure msg) ->
          Alcotest.(check string) "failure at index" (string_of_int i) msg;
          Alcotest.(check bool) "only multiples of 3 fail" true (i mod 3 = 0)
        | Error e -> raise e)
      results
  in
  let xs = List.init 20 Fun.id in
  check_results (Pool.map (Some pool) f xs);
  check_results (Pool.map None f xs);
  Alcotest.check_raises "get re-raises" (Failure "boom") (fun () ->
      ignore (Pool.get (List.hd (Pool.map (Some pool) failwith [ "boom" ]))))

let test_pool_map_array () =
  let pool = Pool.create ~domains:3 () in
  let thunks = Array.init 17 (fun i () -> 2 * i) in
  let results = Pool.map_array pool thunks in
  Array.iteri
    (fun i r -> Alcotest.(check int) "slot" (2 * i) (Pool.get r))
    results

let test_pool_stats () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.(check int) "fixed domain count" 2 (Pool.domains pool);
  ignore (Pool.map (Some pool) Fun.id (List.init 10 Fun.id));
  ignore (Pool.map (Some pool) Fun.id (List.init 5 Fun.id));
  let s = Pool.stats pool in
  Alcotest.(check int) "tasks accumulate" 15 s.Pool.tasks_run;
  Alcotest.(check int) "sweeps counted" 2 s.Pool.runs;
  Alcotest.(check bool) "wall clock measured" true (s.Pool.wall_time_s >= 0.0)

let test_pool_empty_and_single () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.(check (list int)) "empty input" []
    (unwrap (Pool.map (Some pool) Fun.id []));
  Alcotest.(check (list int)) "single task" [ 9 ]
    (unwrap (Pool.map (Some pool) (fun x -> x + 1) [ 8 ]))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_fingerprint () =
  let a = Cache.fingerprint "workload|machine|config" in
  Alcotest.(check string)
    "deterministic" a
    (Cache.fingerprint "workload|machine|config");
  Alcotest.(check bool)
    "sensitive to the descriptor" true
    (a <> Cache.fingerprint "workload|machine|config2");
  Alcotest.(check int) "64-bit hex digest" 16 (String.length a)

let test_cache_find_add () =
  let c = Cache.create () in
  Alcotest.(check bool) "miss on empty" true (Cache.find c "k" = None);
  Cache.add c "k" (Json.Num 1.5);
  (match Cache.find c "k" with
  | Some (Json.Num v) -> Alcotest.(check (float 0.0)) "hit value" 1.5 v
  | _ -> Alcotest.fail "expected a hit");
  Alcotest.(check int) "one hit" 1 (Cache.hits c);
  Alcotest.(check int) "one miss" 1 (Cache.misses c);
  Alcotest.(check int) "one entry" 1 (Cache.length c)

let test_cache_persistence () =
  let path = Filename.temp_file "tilelink_cache" ".json" in
  let c = Cache.create ~path () in
  Cache.add c "alpha" (Json.Num 3.25);
  Cache.add c "beta" (Json.Obj [ ("makespan_us", Json.Num 7.0) ]);
  Cache.save c;
  Alcotest.(check bool) "added entry is written" true (Cache.written c "alpha");
  let reloaded = Cache.create ~path () in
  Alcotest.(check int) "entries reloaded" 2 (Cache.length reloaded);
  Alcotest.(check bool) "loaded entry is not written" false
    (Cache.written reloaded "alpha");
  (match Cache.find reloaded "alpha" with
  | Some (Json.Num v) -> Alcotest.(check (float 0.0)) "value survives" 3.25 v
  | _ -> Alcotest.fail "alpha missing after reload");
  (match Cache.find reloaded "beta" with
  | Some row ->
    (match Json.member "makespan_us" row with
    | Some (Json.Num v) -> Alcotest.(check (float 0.0)) "nested row" 7.0 v
    | _ -> Alcotest.fail "nested field missing")
  | None -> Alcotest.fail "beta missing after reload");
  Sys.remove path

let test_cache_ignores_corrupt_file () =
  let path = Filename.temp_file "tilelink_cache" ".json" in
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  let c = Cache.create ~path () in
  Alcotest.(check int) "corrupt file ignored" 0 (Cache.length c);
  Cache.add c "k" (Json.Num 1.0);
  Cache.save c;
  Alcotest.(check int) "save repairs the file" 1
    (Cache.length (Cache.create ~path ()));
  Sys.remove path

let test_cache_concurrent_access () =
  let pool = Pool.create ~domains:4 () in
  let c = Cache.create () in
  let results =
    Pool.map (Some pool)
      (fun i ->
        let key = Printf.sprintf "key-%d" (i mod 8) in
        Cache.add c key (Json.Num (float_of_int (i mod 8)));
        match Cache.find c key with
        | Some (Json.Num v) -> int_of_float v = i mod 8
        | _ -> false)
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "all lookups consistent" true
    (List.for_all Fun.id (unwrap results));
  Alcotest.(check int) "distinct keys" 8 (Cache.length c)

(* ------------------------------------------------------------------ *)
(* Tune on the pool: determinism and cache effectiveness on the        *)
(* Table-2 MLP design space                                            *)
(* ------------------------------------------------------------------ *)

(* Table 2's AG+GEMM point: S=8192, H=4096, I=11008 on 8 ranks, with
   the curated candidate list the benches search. *)
let table2_search ?pool ?cache () =
  let world = 8 in
  let shapes = { Mlp.m = 8192; k = 4096; n = 2752; world_size = world } in
  match
    Tune.search_programs ?pool ?cache ~workload:"test:table2-ag-gemm"
      ~build:(fun config ->
        Mlp.ag_gemm_program ~config shapes ~spec_gpu:Calib.h800)
      ~make_cluster:(fun () -> Cluster.create Calib.h800 ~world_size:world)
      (Tuned.ag_gemm_candidates ~world_size:world)
  with
  | Some o -> o
  | None -> Alcotest.fail "table-2 search built no candidate"

let evaluations o =
  List.map (fun e -> (e.Tune.config, e.Tune.time)) o.Tune.evaluated

let test_parallel_search_matches_sequential () =
  let seq = table2_search () in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let par = table2_search ~pool () in
      Alcotest.(check bool)
        (Printf.sprintf "best config identical (%d domains)" domains)
        true
        (par.Tune.best.Tune.config = seq.Tune.best.Tune.config);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "best time identical (%d domains)" domains)
        seq.Tune.best.Tune.time par.Tune.best.Tune.time;
      Alcotest.(check bool)
        (Printf.sprintf "evaluated set identical (%d domains)" domains)
        true
        (evaluations par = evaluations seq);
      Alcotest.(check int)
        (Printf.sprintf "skip accounting identical (%d domains)" domains)
        seq.Tune.skipped par.Tune.skipped)
    [ 2; 4 ]

let test_second_run_served_from_cache () =
  let cache = Cache.create () in
  let pool = Pool.create ~domains:2 () in
  let cold = table2_search ~pool ~cache () in
  Alcotest.(check int) "cold run misses everything" 0 cold.Tune.cache_hits;
  let warm = table2_search ~pool ~cache () in
  let total = warm.Tune.cache_hits + warm.Tune.cache_misses in
  Alcotest.(check bool)
    (Printf.sprintf ">=90%% served from cache (%d/%d)" warm.Tune.cache_hits
       total)
    true
    (float_of_int warm.Tune.cache_hits >= 0.9 *. float_of_int total);
  Alcotest.(check bool) "warm best identical" true
    (warm.Tune.best.Tune.config = cold.Tune.best.Tune.config);
  Alcotest.(check (float 0.0))
    "warm best time identical" cold.Tune.best.Tune.time
    warm.Tune.best.Tune.time;
  Alcotest.(check bool) "warm evaluated set identical" true
    (evaluations warm = evaluations cold)

(* A toy AG+GEMM space: three comm tiles times three bindings. *)
let toy_world = 2
let toy_spec = { Mlp.m = 16; k = 4; n = 6; world_size = toy_world }

let toy_configs =
  List.concat_map
    (fun comm_tm ->
      List.map
        (fun binding ->
          {
            Design_space.comm_tile = (comm_tm, comm_tm);
            compute_tile = (2, 3);
            comm_order = Tile.Ring_from_self { segments = toy_world };
            compute_order = Tile.Row_major;
            binding;
            stages = 2;
            micro_block = 0;
          })
        [
          Design_space.Comm_on_sm 1;
          Design_space.Comm_on_sm 2;
          Design_space.Comm_on_dma;
        ])
    [ 2; 4; 8 ]

let toy_program config =
  Mlp.ag_gemm_program ~config toy_spec ~spec_gpu:Calib.test_machine

let toy_cluster () = Cluster.create Calib.test_machine ~world_size:toy_world

(* Every program [build] returns is registered weakly: once the search
   has returned and a full major GC has run, the winner's must be the
   only one left alive.  A warm pass over the cache this process
   filled builds nothing but the winner, once. *)
let test_search_keeps_only_the_winner () =
  let cache = Cache.create () in
  let search () =
    let built = Weak.create (List.length toy_configs) in
    let next = ref 0 in
    let build config =
      let program = toy_program config in
      Weak.set built !next (Some program);
      incr next;
      program
    in
    match
      Tune.search_programs ~cache ~workload:"test:retention" ~build
        ~make_cluster:toy_cluster toy_configs
    with
    | None -> Alcotest.fail "retention search built no candidate"
    | Some o ->
      Gc.full_major ();
      let alive =
        List.filter_map (Weak.get built) (List.init !next Fun.id)
      in
      (o, !next, alive)
  in
  let check pass ~builds (o, built, alive) =
    Alcotest.(check int) (pass ^ ": builds") builds built;
    Alcotest.(check int) (pass ^ ": one program alive") 1
      (List.length alive);
    Alcotest.(check bool) (pass ^ ": it is the winner's") true
      (List.hd alive == o.Tune.best.Tune.candidate)
  in
  let cold = search () in
  check "cold" ~builds:(List.length toy_configs) cold;
  let warm = search () in
  check "warm" ~builds:1 warm;
  let o, _, _ = warm in
  Alcotest.(check int) "warm: every candidate a hit"
    (List.length toy_configs) o.Tune.cache_hits;
  let cold_o, _, _ = cold in
  Alcotest.(check string) "warm winner program identical"
    (Program_digest.digest cold_o.Tune.best.Tune.candidate)
    (Program_digest.digest o.Tune.best.Tune.candidate)

(* Blame is an annotation, not an input to the search: over the toy
   space plus one candidate that fails to build, a search with
   [~blame:true] and one without agree on every score, the winner, its
   program and every count, at pool widths 1 and 2, cold and warm on an
   in-process cache of their own.  Only the blame differs: [Some] on
   every score with it, [None] on every score without it. *)
let test_blame_changes_no_search_result () =
  let unbuildable =
    { (List.hd toy_configs) with Design_space.comm_tile = (3, 3) }
  in
  let configs = toy_configs @ [ unbuildable ] in
  let search ~pool ~cache ~blame =
    match
      Tune.search_programs ~pool ~cache ~blame ~workload:"test:blame"
        ~build:toy_program ~make_cluster:toy_cluster configs
    with
    | Some o -> o
    | None -> Alcotest.fail "blame search built no candidate"
  in
  let counts (o : _ Tune.outcome) =
    [
      o.Tune.skipped; o.Tune.skipped_build; o.Tune.skipped_invalid;
      o.Tune.skipped_deadlock; o.Tune.skipped_race; o.Tune.cache_hits;
      o.Tune.cache_misses;
    ]
  in
  let blamed (o : _ Tune.outcome) =
    List.map (fun e -> e.Tune.exposed_comm_us <> None) o.Tune.evaluated
  in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let bare_cache = Cache.create () and blame_cache = Cache.create () in
      List.iter
        (fun (pass, hits) ->
          let what = Printf.sprintf "%s, %d domains" pass domains in
          let bare = search ~pool ~cache:bare_cache ~blame:false in
          let blame = search ~pool ~cache:blame_cache ~blame:true in
          Alcotest.(check bool) (what ^ ": evaluated identical") true
            (evaluations bare = evaluations blame);
          Alcotest.(check bool) (what ^ ": winner config identical") true
            (bare.Tune.best.Tune.config = blame.Tune.best.Tune.config);
          Alcotest.(check (float 0.0))
            (what ^ ": winner time identical") blame.Tune.best.Tune.time
            bare.Tune.best.Tune.time;
          Alcotest.(check string) (what ^ ": winner program identical")
            (Program_digest.digest blame.Tune.best.Tune.candidate)
            (Program_digest.digest bare.Tune.best.Tune.candidate);
          Alcotest.(check (list int)) (what ^ ": counts identical")
            (counts blame) (counts bare);
          Alcotest.(check int) (what ^ ": one skipped build") 1
            bare.Tune.skipped_build;
          Alcotest.(check int) (what ^ ": cache hits") hits
            bare.Tune.cache_hits;
          Alcotest.(check bool) (what ^ ": bare scores carry no blame") true
            (List.for_all not (blamed bare));
          Alcotest.(check bool) (what ^ ": blame scores carry it") true
            (List.for_all Fun.id (blamed blame)))
        [ ("cold", 0); ("warm", List.length toy_configs) ])
    [ 1; 2 ]

(* [Tune.search] over the toy space with every [build] and [analyze]
   call counted; [broken] names configs whose program is built with a
   dropped notify, which the analyzer must reject. *)
let counted_key config =
  Cache.fingerprint ("test:counted|" ^ Design_space.fingerprint config)

let counted_search ?pool ?(broken = []) ~cache () =
  let builds = Atomic.make 0 and analyses = Atomic.make 0 in
  let outcome =
    Tune.search ?pool ~cache ~cache_key:counted_key
      ~analyze:(fun program ->
        Atomic.incr analyses;
        Analyzer.check_message program)
      ~build:(fun config ->
        Atomic.incr builds;
        let program = toy_program config in
        if List.mem config broken then
          Fault.drop_notify program ~rank:0 ~nth:0
        else program)
      ~evaluate:(fun program ->
        (Runtime.run (toy_cluster ()) program).Runtime.makespan)
      toy_configs
  in
  match outcome with
  | None -> Alcotest.fail "counted search built no candidate"
  | Some o -> (o, Atomic.get builds, Atomic.get analyses)

let test_in_process_hits_skip_build_and_analysis () =
  let n = List.length toy_configs in
  let cache = Cache.create () in
  let cold, builds, analyses = counted_search ~cache () in
  Alcotest.(check (pair int int)) "cold: build and analyze all" (n, n)
    (builds, analyses);
  List.iter
    (fun domains ->
      let pool = Option.map (fun domains -> Pool.create ~domains ()) domains in
      let warm, builds, analyses = counted_search ?pool ~cache () in
      let at =
        Printf.sprintf " (%d domains)" (Option.value ~default:1 domains)
      in
      Alcotest.(check (pair int int))
        ("warm: build the winner, analyze none" ^ at)
        (1, 0) (builds, analyses);
      Alcotest.(check int) ("warm: all hits" ^ at) n warm.Tune.cache_hits;
      Alcotest.(check bool) ("warm winner identical" ^ at) true
        (warm.Tune.best.Tune.config = cold.Tune.best.Tune.config
        && warm.Tune.best.Tune.time = cold.Tune.best.Tune.time);
      Alcotest.(check bool) ("warm evaluated set identical" ^ at) true
        (evaluations warm = evaluations cold))
    [ None; Some 2 ]

(* Entries loaded from a file may predate a builder change, so a
   reloaded cache replays nothing unchecked: every candidate is built
   and analyzed again, and a planted entry under a candidate that now
   fails analysis cannot resurrect it. *)
let test_persistent_hits_rebuild_and_reanalyze () =
  let n = List.length toy_configs in
  let path = Filename.temp_file "tilelink_cache" ".json" in
  Sys.remove path;
  let bad = List.hd toy_configs in
  let broken, _, _ =
    counted_search ~broken:[ bad ] ~cache:(Cache.create ()) ()
  in
  Alcotest.(check int) "the broken candidate is a race" 1
    broken.Tune.skipped_race;
  let cold =
    let cache = Cache.create ~path () in
    let o, builds, analyses = counted_search ~cache () in
    Alcotest.(check (pair int int)) "fresh file: build and analyze all"
      (n, n) (builds, analyses);
    Cache.save cache;
    o
  in
  let reloaded, builds, analyses =
    counted_search ~cache:(Cache.create ~path ()) ()
  in
  Alcotest.(check (pair int int)) "reloaded: build and analyze all" (n, n)
    (builds, analyses);
  Alcotest.(check int) "reloaded: all hits" n reloaded.Tune.cache_hits;
  (* A file stores times exactly, so a reload replays them bit for
     bit. *)
  Alcotest.(check bool) "reloaded scores identical" true
    (evaluations reloaded = evaluations cold);
  (* Plant an entry faster than any real one under the broken
     candidate's key, in the file. *)
  let planted = Cache.create ~path () in
  Cache.add planted (counted_key bad)
    (Json.Obj
       [
         ("v", Json.Num (float_of_int Tune.cache_schema_version));
         ("time", Json.Str (Printf.sprintf "%h" 1e-3));
         ("exposed_comm_us", Json.Str (Printf.sprintf "%h" 0.0));
       ]);
  Cache.save planted;
  let o, builds, analyses =
    counted_search ~broken:[ bad ] ~cache:(Cache.create ~path ()) ()
  in
  Alcotest.(check (pair int int)) "planted: build and analyze all" (n, n)
    (builds, analyses);
  Alcotest.(check int) "planted entry still a race" 1 o.Tune.skipped_race;
  Alcotest.(check int) "planted entry not served" (n - 1) o.Tune.cache_hits;
  Alcotest.(check bool) "winner is not the planted entry" true
    (o.Tune.best.Tune.config <> bad && o.Tune.best.Tune.time > 1e-3);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Cache schema versioning: mixed legacy / current entry shapes        *)
(* ------------------------------------------------------------------ *)

(* A tiny search (seconds of simulated time, four candidates) whose
   cache keys we can reconstruct, so individual entries can be
   rewritten into legacy shapes between runs. *)
let schema_shapes = { Mlp.m = 16; k = 4; n = 6; world_size = 4 }

let schema_config ~stages ~compute_tile =
  let ring = Tile.Ring_from_self { segments = 4 } in
  {
    Design_space.comm_tile = (2, 128);
    compute_tile;
    comm_order = ring;
    compute_order = ring;
    binding = Design_space.Comm_on_sm 1;
    stages;
    micro_block = 0;
  }

let schema_configs =
  [
    schema_config ~stages:1 ~compute_tile:(2, 2);
    schema_config ~stages:2 ~compute_tile:(2, 2);
    schema_config ~stages:1 ~compute_tile:(2, 3);
    schema_config ~stages:2 ~compute_tile:(2, 3);
  ]

let schema_search ~cache () =
  match
    Tune.search_programs ~cache ~blame:true ~workload:"test:schema-mlp"
      ~build:(fun config ->
        Mlp.ag_gemm_program ~config schema_shapes ~spec_gpu:Calib.test_machine)
      ~make_cluster:(fun () ->
        Cluster.create Calib.test_machine ~world_size:4)
      schema_configs
  with
  | Some o -> o
  | None -> Alcotest.fail "schema search built no candidate"

(* The exact key construction Tune.search_programs uses. *)
let schema_key config =
  let machine =
    Printf.sprintf "%s|world=%d" (Spec.fingerprint Calib.test_machine) 4
  in
  Cache.fingerprint
    (String.concat "|"
       [ "test:schema-mlp"; machine; Design_space.fingerprint config ])

let schema_tag_of key cache =
  match Cache.find cache key with
  | None -> Alcotest.fail "cache entry missing"
  | Some row -> (
    match Json.member "v" row with
    | Some (Json.Num v) -> Some (int_of_float v)
    | _ -> None)

let test_cache_schema_versioning () =
  let cache = Cache.create () in
  let cold = schema_search ~cache () in
  Alcotest.(check int) "cold run misses all four" 4 cold.Tune.cache_misses;
  (* Fresh evaluations land under the current schema, with the
     exposed-communication measurement attached. *)
  List.iter
    (fun config ->
      Alcotest.(check (option int))
        "fresh entry tagged with the current schema"
        (Some Tune.cache_schema_version)
        (schema_tag_of (schema_key config) cache))
    schema_configs;
  List.iter
    (fun e ->
      Alcotest.(check bool) "evaluation carries exposed_comm_us" true
        (e.Tune.exposed_comm_us <> None))
    cold.Tune.evaluated;
  let measured config =
    List.find (fun e -> e.Tune.config = config) cold.Tune.evaluated
  in
  (* Rewrite the stored entries into a mix of legacy and current
     shapes: c0 as a pre-profiler bare number, c1 as an untagged object
     missing the exposed-communication field, c2 as a schema-2 object
     carrying the full measurement in decimal — all three must
     invalidate — and c3 untouched under the current schema. *)
  let c0, c1, c2, c3 =
    match schema_configs with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  let mixed_cache = Cache.create () in
  Cache.add mixed_cache (schema_key c0) (Json.Num (measured c0).Tune.time);
  Cache.add mixed_cache (schema_key c1)
    (Json.Obj [ ("time", Json.Num (measured c1).Tune.time) ]);
  Cache.add mixed_cache (schema_key c2)
    (Json.Obj
       [
         ("v", Json.Num 2.0);
         ("time", Json.Num (measured c2).Tune.time);
         ( "exposed_comm_us",
           Json.Num (Option.get (measured c2).Tune.exposed_comm_us) );
       ]);
  (match Cache.find cache (schema_key c3) with
  | Some row -> Cache.add mixed_cache (schema_key c3) row
  | None -> Alcotest.fail "current-schema entry missing");
  let warm = schema_search ~cache:mixed_cache () in
  Alcotest.(check int) "legacy shapes invalidated" 3 warm.Tune.cache_misses;
  Alcotest.(check int) "current shape hits" 1 warm.Tune.cache_hits;
  (* Invalidation is invisible in the results: same winner, same
     per-candidate measurements — the deterministic simulator
     reproduces what the dropped entries stored. *)
  Alcotest.(check bool) "winner unchanged" true
    (warm.Tune.best.Tune.config = cold.Tune.best.Tune.config);
  Alcotest.(check bool) "evaluated set identical" true
    (evaluations warm = evaluations cold);
  (* The invalidated keys are rewritten under the current schema. *)
  List.iter
    (fun config ->
      Alcotest.(check (option int))
        "re-evaluated entry rewritten with the schema tag"
        (Some Tune.cache_schema_version)
        (schema_tag_of (schema_key config) mixed_cache))
    [ c0; c1; c2 ];
  (* A cache entry tagged with a future schema version is never
     trusted, even if its fields look plausible. *)
  let future_cache = Cache.create () in
  Cache.add future_cache (schema_key c0)
    (Json.Obj
       [
         ( "v",
           Json.Num (float_of_int (Tune.cache_schema_version + 1)) );
         ("time", Json.Num 1.0);
         ("exposed_comm_us", Json.Num 0.5);
       ]);
  let refetched = schema_search ~cache:future_cache () in
  Alcotest.(check int) "future schema version is a miss" 4
    refetched.Tune.cache_misses

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tilelink_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "exception capture" `Quick
            test_pool_captures_exceptions;
          Alcotest.test_case "map_array" `Quick test_pool_map_array;
          Alcotest.test_case "stats" `Quick test_pool_stats;
          Alcotest.test_case "empty + single" `Quick
            test_pool_empty_and_single;
        ] );
      ( "cache",
        [
          Alcotest.test_case "fingerprint" `Quick test_cache_fingerprint;
          Alcotest.test_case "find/add" `Quick test_cache_find_add;
          Alcotest.test_case "persistence" `Quick test_cache_persistence;
          Alcotest.test_case "corrupt file" `Quick
            test_cache_ignores_corrupt_file;
          Alcotest.test_case "concurrent access" `Quick
            test_cache_concurrent_access;
          Alcotest.test_case "schema versioning" `Quick
            test_cache_schema_versioning;
        ] );
      ( "tune",
        [
          Alcotest.test_case "keeps only the winner's program" `Quick
            test_search_keeps_only_the_winner;
          Alcotest.test_case "blame changes no search result" `Quick
            test_blame_changes_no_search_result;
          Alcotest.test_case "in-process hits skip build and analysis" `Quick
            test_in_process_hits_skip_build_and_analysis;
          Alcotest.test_case "persistent hits rebuild and reanalyze" `Quick
            test_persistent_hits_rebuild_and_reanalyze;
          Alcotest.test_case "parallel = sequential (table 2)" `Slow
            test_parallel_search_matches_sequential;
          Alcotest.test_case "warm cache >=90% hits" `Slow
            test_second_run_served_from_cache;
        ] );
    ]
