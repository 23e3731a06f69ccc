(* Two-clock performance benchmark: host wall time, set-up time and
   memory of five workloads, with their simulated-clock results and
   checked outputs, plus a traced run that splits host time by layer.

     perf.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1|FILE]
              [--smoke] [--check]

   Run from the root of a checkout: it reads BENCHMARK.json and
   bench/perf/expected.json there.  One workload per process, so peak
   RSS and GC counters are its own ([--workload all] re-executes this
   program once per workload).  The run sets the workload up five times
   (median = raw_setup_s), then repeats its items for [--seconds] (at
   least one full pass) and reports, per item, the median sample;
   [wall_s] is their sum, the cost of one pass.  A fixed calibration
   kernel runs between items; [norm_wall_s] and [setup_s] are [wall_s]
   and [raw_setup_s] rescaled by its median time, so that the host's
   drifting speed cancels out.  With [--trace], half the time goes
   to the untraced loop and then one traced pass runs; its spans are
   written to FILE ([1]: perf_spans_<workload>.json).

   Output: one JSON report line per workload with every metric, the
   checks, the per-layer split (traced runs) and provenance; a human
   table on stderr; and as the last stdout line the summary object
   {correct, attempted, failed, metrics} holding the metrics that
   BENCHMARK.json lists (end_to_end, or per_layer when traced).  A
   metric missing there or with another unit exits 2; so does a failed
   check under [--check]. *)

module W = Workloads
module Json = Tilelink_obs.Json

let process_start = Tracer.now ()

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : string option;  (** spans file when traced, [""] for the default *)
  size : W.size;
  check : bool;
}

let usage =
  "usage: perf.exe --workload NAME|all [--seed N] [--seconds S] [--trace \
   0|1|FILE] [--smoke] [--check]"

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed -> go { o with seed } rest
      | None -> die "--seed wants an integer, got %S" v)
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0. -> go { o with seconds = s } rest
      | _ -> die "--seconds wants a non-negative number, got %S" v)
    | "--trace" :: "0" :: rest -> go { o with trace = None } rest
    | "--trace" :: "1" :: rest -> go { o with trace = Some "" } rest
    | "--trace" :: file :: rest -> go { o with trace = Some file } rest
    | "--smoke" :: rest -> go { o with size = W.Smoke } rest
    | "--check" :: rest -> go { o with check = true } rest
    | arg :: _ -> die "unknown argument %S\n%s" arg usage
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 10.;
      trace = None;
      size = W.Paper;
      check = false;
    }
    (List.tl (Array.to_list argv))

let read_json path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> die "cannot read %s" e
  in
  match Json.parse text with Ok j -> j | Error e -> die "%s: %s" path e

(* ------------------------------------------------------------------ *)
(* Schema: the metric names and units BENCHMARK.json promises          *)
(* ------------------------------------------------------------------ *)

(* (name, unit) pairs *)
type schema = {
  end_to_end : (string * string) list;
  per_layer : (string * string) list;
}

let load_schema () =
  let path = "BENCHMARK.json" in
  let json = read_json path in
  let metrics key =
    List.map
      (fun m ->
        match
          ( Option.bind (Json.member "name" m) Json.to_str,
            Option.bind (Json.member "unit" m) Json.to_str )
        with
        | Some n, Some u -> (n, u)
        | _ -> die "%s: %s entry without name or unit" path key)
      (Option.fold ~none:[] ~some:Json.to_list (Json.member key json))
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* Every promised metric present, finite and in its unit. *)
let schema_errors promised (metrics : (string * (float * string)) list) =
  List.filter_map
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | None -> Some (name ^ ": missing")
      | Some (v, _) when not (Float.is_finite v) -> Some (name ^ ": not finite")
      | Some (_, u) when u <> unit ->
        Some (Printf.sprintf "%s: unit %s, schema says %s" name u unit)
      | Some _ -> None)
    promised

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* [norm] is [wall] in units of the calibration kernel (below). *)
type sample = {
  wall : float;
  norm : float;
  alloc_words : float;
  minor : float;
  major : float;
}

let zero = { wall = 0.; norm = 0.; alloc_words = 0.; minor = 0.; major = 0. }

(* Times [f] and the GC work it does, adding both to [acc]. *)
let timer acc =
  {
    W.time =
      (fun f ->
        let g0 = Gc.quick_stat () and t0 = Tracer.now () in
        let r = f () in
        let t1 = Tracer.now () and g1 = Gc.quick_stat () in
        let words (g : Gc.stat) =
          g.minor_words +. g.major_words -. g.promoted_words
        in
        let diff f = float_of_int (f g1 - f g0) in
        acc :=
          {
            !acc with
            wall = !acc.wall +. (t1 -. t0);
            alloc_words = !acc.alloc_words +. (words g1 -. words g0);
            minor = !acc.minor +. diff (fun g -> g.minor_collections);
            major = !acc.major +. diff (fun g -> g.major_collections);
          };
        r);
  }

let run_item (item : W.item) time =
  let acc = ref zero in
  item.W.run (time acc);
  !acc

(* The host is shared, and its speed drifts by tens of percent within
   minutes, for every kind of work at once.  A fixed calibration kernel
   of the benchmark's own measures that drift: it mixes the three kinds
   of work the workloads do (integer dispatch, a float loop, short-lived
   allocation with polymorphic compares) and calls no library code, so
   a change to the library leaves it alone.  The kernel runs before the
   first item and then at least every [calibrate_every_s]; each sample
   is divided by the kernel time just before it and multiplied by
   [reference_s].  That rescales the sample to a host on which the
   kernel takes [reference_s]. *)
let reference_s = 0.05
let calibrate_every_s = 0.5
let floats = Array.init 32768 (fun i -> float_of_int (i land 255) *. 0.001)

let kernel () =
  let x = ref 12345 in
  for i = 1 to 10_000_000 do
    x := (!x * 31) lxor (i lsr 3);
    if !x land 7 = 3 then incr x
  done;
  let acc = ref 0. in
  for _ = 1 to 150 do
    for i = 0 to 32767 do
      acc := !acc +. (floats.(i) *. floats.(i lxor 5))
    done
  done;
  let sum = ref 0 in
  for r = 1 to 30 do
    let xs = List.init 2000 (fun i -> ((((i * 7919) + r) mod 10007), i)) in
    sum := List.fold_left (fun a (v, _) -> a + v) !sum (List.sort compare xs)
  done;
  ignore (Sys.opaque_identity (!x, !acc, !sum))

let kernel_seconds () = snd (W.seconds kernel)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %f kB" (fun kb -> Some (kb *. 1024. /. 1e6))
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Cycle through the items until each has run once and [seconds] have
   passed; per item, the samples newest first, the kernel's times, and
   the peak RSS after the first pass.  Later passes grow the heap by
   steps that depend on timing, so only the first pass gives a steady
   peak. *)
let measure ~seconds items =
  let items = Array.of_list items in
  let samples = Array.make (Array.length items) [] in
  let kernel_s = ref [] and last = ref neg_infinity in
  let rss = ref None in
  let start = Tracer.now () in
  let i = ref 0 in
  while Array.mem [] samples || Tracer.now () -. start < seconds do
    if Tracer.now () -. !last >= calibrate_every_s then begin
      kernel_s := kernel_seconds () :: !kernel_s;
      last := Tracer.now ()
    end;
    let s = run_item items.(!i) timer in
    let norm = s.wall *. reference_s /. List.hd !kernel_s in
    samples.(!i) <- { s with norm } :: samples.(!i);
    i := (!i + 1) mod Array.length items;
    if !i = 0 && !rss = None then rss := Some (peak_rss_mb ())
  done;
  (samples, !kernel_s, Option.get !rss)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One pass, estimated robustly: the sum over items of each item's
   median sample. *)
let per_pass samples field =
  Array.fold_left (fun acc s -> acc +. median (List.map field s)) 0. samples

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the traced pass                              *)
(* ------------------------------------------------------------------ *)

let layers =
  [ "bench"; "tune"; "planner"; "build"; "analyzer"; "runtime"; "obs"; "cache";
    "tensor"; "parallel"; "serve"; "chaos" ]

let percentile p = function [] -> 0. | xs -> Tilelink_sim.Stats.percentile p xs

let layer_metrics tr counters ~untraced_wall ~traced_wall ~gc =
  let selfs = Tracer.self_times tr in
  let spans = List.map fst selfs in
  let ctr name = Option.value ~default:0. (Hashtbl.find_opt counters name) in
  let self layer =
    List.fold_left
      (fun a (s, t) -> if s.Tracer.layer = layer then a +. t else a)
      0. selfs
  in
  let calls layer =
    float_of_int (List.length (List.filter (fun s -> s.Tracer.layer = layer) spans))
  in
  let durations p = List.map Tracer.duration (List.filter p spans) in
  let ratio a b = if b > 0. then a /. b else 0. in
  (* A candidate's cost is the sum of its sibling spans: build,
     analysis, cache lookup, simulation, attribution. *)
  let candidate_ms =
    let by_item = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.Tracer.item >= 0 then
          Hashtbl.replace by_item s.Tracer.item
            (Tracer.duration s
            +. Option.value ~default:0. (Hashtbl.find_opt by_item s.Tracer.item)))
      spans;
    Hashtbl.fold (fun _ d acc -> (d *. 1e3) :: acc) by_item []
  in
  let runtime_ms =
    durations (fun s -> s.Tracer.layer = "runtime") |> List.map (fun d -> d *. 1e3)
  in
  let seq_s = self "tensor" and par_s = self "parallel" in
  let serve_s = self "serve" and steps = ctr "serve.steps" in
  let hits = ctr "cache.hits" and misses = ctr "cache.misses" in
  let sum_self = List.fold_left (fun a (_, t) -> a +. t) 0. selfs in
  [
    ("sim.events", ctr "sim.events", "count");
    ("sim.ns_per_event", ratio (ctr "sim.probe_s" *. 1e9) (ctr "sim.events"), "ns");
    ("build.calls", calls "build", "count");
    ("build.s", self "build", "s");
    ("build.instrs", ctr "build.instrs", "count");
    ("build.ns_per_instr", ratio (self "build" *. 1e9) (ctr "build.instrs"), "ns");
    ("analyzer.calls", calls "analyzer", "count");
    ("analyzer.s", self "analyzer", "s");
    ("analyzer.us_per_call", ratio (self "analyzer" *. 1e6) (calls "analyzer"), "us");
    ("runtime.calls", calls "runtime", "count");
    ("runtime.s", self "runtime", "s");
    ("runtime.ms_per_call_p50", percentile 50. runtime_ms, "ms");
    ("runtime.ms_per_call_p90", percentile 90. runtime_ms, "ms");
    ("obs.telemetry_s", ctr "obs.telemetry_s", "s");
    ("obs.attribution_s", self "obs", "s");
    ("obs.spans", ctr "obs.spans", "count");
    ("cache.hits", hits, "count");
    ("cache.misses", misses, "count");
    ("cache.hit_ratio", ratio hits (hits +. misses), "frac");
    ("cache.find_us", ratio (self "cache" *. 1e6) (calls "cache"), "us");
    ("tune.candidates", ctr "tune.candidates", "count");
    ("tune.skipped_build", ctr "tune.skipped_build", "count");
    ("tune.skipped_race", ctr "tune.skipped_race", "count");
    ("tune.candidate_ms_p50", percentile 50. candidate_ms, "ms");
    ("tune.candidate_ms_p90", percentile 90. candidate_ms, "ms");
    ("planner.candidates", ctr "planner.candidates", "count");
    ( "planner.synthesize_s",
      List.fold_left ( +. ) 0.
        (durations (fun s -> s.Tracer.name = "Planner.synthesize")),
      "s" );
    ("tensor.gemm_gflops", ctr "tensor.gemm_gflops", "GFLOP/s");
    ("tensor.seq_exec_s", seq_s, "s");
    ("parallel.exec_s", par_s, "s");
    ("parallel.busy_s", ctr "parallel.busy_s", "s");
    ( "parallel.utilization",
      ratio (ctr "parallel.busy_s") (par_s *. float_of_int W.domains),
      "frac" );
    ("parallel.parks", ctr "parallel.parks", "count");
    ("parallel.speedup_vs_seq", ratio seq_s par_s, "x");
    ("serve.steps", steps, "count");
    ("serve.host_us_per_step", ratio (serve_s *. 1e6) steps, "us");
    ( "serve.host_us_per_request",
      ratio (serve_s *. 1e6) (ctr "serve.requests"),
      "us" );
    ("serve.trace_gen_s", ctr "serve.trace_gen_s", "s");
    ("serve.shed_frac", ratio (ctr "serve.shed") (ctr "serve.requests"), "frac");
    ("chaos.trials", ctr "chaos.trials", "count");
    ("chaos.failed_over", ctr "chaos.failed_over", "count");
    ("chaos.replayed_tiles", ctr "chaos.replayed_tiles", "count");
    ("chaos.cross_island_replays", ctr "chaos.cross_island_replays", "count");
    ("chaos.ms_per_trial", ratio (self "chaos" *. 1e3) (ctr "chaos.trials"), "ms");
  ]
  @ gc
  @ List.map (fun l -> (l ^ ".share", ratio (self l) traced_wall, "frac")) layers
  @ [
      ("trace.wall_s", traced_wall, "s");
      ("trace.overhead_frac", ratio traced_wall untraced_wall -. 1., "frac");
      ( "trace.conservation_err",
        ratio (Float.abs (sum_self -. traced_wall)) traced_wall,
        "frac" );
    ]

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

(* The checked-out commit, read from .git without running git. *)
let git_rev () =
  let read f = String.trim (In_channel.with_open_bin f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
      try Some (read (".git/" ^ ref_))
      with Sys_error _ ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ rev; r ] when r = ref_ -> Some rev
            | _ -> None)
          (String.split_on_char '\n' (read ".git/packed-refs")))
    | _ -> Some head
  with Sys_error _ -> None

let provenance o =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int o.seed));
      ("seconds", Json.Num o.seconds);
      ("size", Json.Str (match o.size with W.Paper -> "paper" | W.Smoke -> "smoke"));
      ("host_cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", match git_rev () with Some r -> Json.Str r | None -> Json.Null);
    ]

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (n, (v, u)) ->
         (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       ms)

let items_json items samples =
  Json.Obj
    (List.mapi
       (fun i (it : W.item) ->
         let walls = List.map (fun s -> s.wall) samples.(i) in
         ( it.W.key,
           Json.Obj
             [
               ("median_s", Json.Num (median walls));
               ("samples", Json.Num (float_of_int (List.length walls)));
             ] ))
       items)

(* Shortest decimal that reads back as the same float: every measured
   digit, no trailing noise ([Json.to_string] keeps six). *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let summary_line ~(checks : W.checks) metrics =
  let str s = Json.to_string (Json.Str s) in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    (checks.W.failed = 0) checks.W.attempted checks.W.failed
    (String.concat ","
       (List.map
          (fun (n, (v, u)) ->
            Printf.sprintf {|%s:{"value":%s,"unit":%s}|} (str n) (number v)
              (str u))
          metrics))

let print_table ~title ms =
  Printf.eprintf "%s\n" title;
  List.iter (fun (n, (v, u)) -> Printf.eprintf "  %-28s %16.6g %s\n" n v u) ms

(* ------------------------------------------------------------------ *)
(* Expected simulated results                                          *)
(* ------------------------------------------------------------------ *)

(* bench/perf/expected.json holds the simulated-clock results the
   benchmark expects: under "warmup", those of each workload's
   smoke-size warm-up (seed 1); under "paper", those of the workloads
   whose paper-size results do not depend on the seed.  The simulator
   is deterministic, so a result worse than expected is a failed check,
   which makes [correct] false; an equal or better one passes. *)
let higher_is_better =
  [ "sim_speedup_vs_nonoverlap"; "max_rate_rps"; "overload_goodput_rps" ]

let check_expected checks ~label expected simulated =
  List.iter
    (fun (name, v, _) ->
      let what = Printf.sprintf "%s %s = %s" label name (number v) in
      match Option.bind (Json.member name expected) Json.to_float with
      | None -> W.check checks (what ^ ", no expected value") false
      | Some e ->
        let tol = 1e-9 *. Float.abs e in
        let worse =
          if List.mem name higher_is_better then v < e -. tol else v > e +. tol
        in
        W.check checks (Printf.sprintf "%s, expected %s" what (number e)) (not worse))
    simulated

let run_workload o (w : W.t) schema expected =
  let section s = Option.bind (Json.member s expected) (Json.member w.W.name) in
  (* Set-up: the seeded inputs, then one untimed smoke-size pass so
     lazy initialisation, code paging, heap growth and the domain team
     are paid before timing.  The warm-up is not an input: it uses a
     fixed seed, so its cost does not move with --seed, but it runs the
     workload's own code, so a faster hot path also shortens setup_s. *)
  let setup () =
    let inst = w.W.make o.size ~seed:o.seed in
    let warm =
      if o.size = W.Smoke then None
      else
        let warm = w.W.make W.Smoke ~seed:1 in
        List.iter
          (fun it -> it.W.run { W.time = (fun f -> f ()) })
          (warm.W.items None);
        Some warm
    in
    (inst, warm)
  in
  (* Each set-up runs right after the kernel, which rescales it as it
     does the timed samples: (raw, rescaled) seconds.  Only the last
     set-up is kept; collecting the others before the next one starts
     keeps their inputs out of the peak RSS. *)
  let timed_setup () =
    let k = kernel_seconds () in
    let r, s = W.seconds setup in
    (r, (s, s *. reference_s /. k))
  in
  let discarded =
    List.init 4 (fun _ ->
        let s = snd (timed_setup ()) in
        Gc.full_major ();
        s)
  in
  let (inst, warm), last = timed_setup () in
  let setups = last :: discarded in
  let raw_setup_s = median (List.map fst setups)
  and setup_s = median (List.map snd setups) in
  let startup_s = Tracer.now () -. process_start in
  let traced = o.trace <> None in
  let items = inst.W.items None in
  let samples, kernel_s, peak_rss_mb =
    measure ~seconds:(if traced then o.seconds /. 2. else o.seconds) items
  in
  let passes =
    float_of_int (Array.fold_left (fun a s -> a + List.length s) 0 samples)
    /. float_of_int (Array.length samples)
  in
  let wall_s = per_pass samples (fun s -> s.wall) in
  let gc =
    [
      ( "gc.alloc_mb",
        per_pass samples (fun s -> s.alloc_words)
        *. float_of_int (Sys.word_size / 8)
        /. 1e6,
        "MB" );
      ("gc.minor_collections", per_pass samples (fun s -> s.minor), "count");
      ("gc.major_collections", per_pass samples (fun s -> s.major), "count");
    ]
  in
  let layer_ms =
    match o.trace with
    | None -> []
    | Some file ->
      let file =
        if file = "" then Printf.sprintf "perf_spans_%s.json" w.W.name else file
      in
      let tr = Tracer.create () in
      let traced_items = inst.W.items (Some tr) in
      let wall =
        List.fold_left
          (fun acc (item : W.item) ->
            let s =
              run_item item (fun acc ->
                  let t = timer acc in
                  { W.time = (fun f -> t.W.time (fun () ->
                        Tracer.span tr ~layer:"bench" ~name:item.W.key f)) })
            in
            acc +. s.wall)
          0. traced_items
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Json.to_string (Tracer.to_json tr)));
      layer_metrics tr inst.W.counters ~untraced_wall:wall_s
        ~traced_wall:(wall -. Tracer.probe_seconds tr) ~gc
  in
  let checks = inst.W.checks in
  let simulated = inst.W.simulated () in
  let warm_simulated =
    match warm with
    | None -> []
    | Some warm ->
      let wc = warm.W.checks in
      checks.W.attempted <- checks.W.attempted + wc.W.attempted;
      checks.W.failed <- checks.W.failed + wc.W.failed;
      checks.W.failures <-
        checks.W.failures @ List.map (fun f -> "warm-up " ^ f) wc.W.failures;
      let sim = warm.W.simulated () in
      check_expected checks ~label:"warm-up"
        (Option.value ~default:(Json.Obj []) (section "warmup"))
        sim;
      sim
  in
  if o.size = W.Paper then
    Option.iter
      (fun e -> check_expected checks ~label:"paper" e simulated)
      (section "paper");
  let known = inst.W.known_defects () in
  let known_failed = List.length (List.filter (fun (_, d) -> d <> None) known) in
  let end_to_end =
    [
      ("norm_wall_s", (per_pass samples (fun s -> s.norm), "s"));
      ("setup_s", (setup_s, "s"));
      ("peak_rss_mb", (peak_rss_mb, "MB"));
      ("wall_s", (wall_s, "s"));
      ("raw_setup_s", (raw_setup_s, "s"));
      ("kernel_s", (median kernel_s, "s"));
      ( "failed_frac",
        ( float_of_int (checks.W.failed + known_failed)
          /. float_of_int (max 1 (checks.W.attempted + List.length known)),
          "frac" ) );
    ]
    @ List.map (fun (n, v, u) -> (n, (v, u))) simulated
  in
  let layer_ms = List.map (fun (n, v, u) -> (n, (v, u))) layer_ms in
  let sim_json sim = metrics_json (List.map (fun (n, v, u) -> (n, (v, u))) sim) in
  let report =
    Json.Obj
      ([
         ("workload", Json.Str w.W.name);
         ("passes", Json.Num passes);
         ("items", items_json items samples);
         ("metrics", metrics_json end_to_end);
         ("startup_s", Json.Num startup_s);
         ( "checks",
           Json.Obj
             [
               ("attempted", Json.Num (float_of_int checks.W.attempted));
               ("failed", Json.Num (float_of_int checks.W.failed));
               ( "failures",
                 Json.List (List.map (fun f -> Json.Str f) checks.W.failures) );
             ] );
         ( "known_defects",
           Json.List
             (List.map
                (fun (n, d) ->
                  Json.Obj
                    [
                      ("name", Json.Str n);
                      ("reproduced", Json.Bool (d <> None));
                      ( "observed",
                        match d with Some d -> Json.Str d | None -> Json.Null );
                    ])
                known) );
       ]
      @ (if warm = None then [] else [ ("warmup_simulated", sim_json warm_simulated) ])
      @ (if traced then [ ("layers", metrics_json layer_ms) ] else [])
      @ [ ("provenance", provenance o) ])
  in
  print_endline (Json.to_string report);
  print_table
    ~title:(Printf.sprintf "%s (seed %d, %.1f passes)" w.W.name o.seed passes)
    end_to_end;
  Printf.eprintf "  checks: %d attempted, %d failed\n" checks.W.attempted
    checks.W.failed;
  List.iter (Printf.eprintf "  FAILED %s\n") checks.W.failures;
  List.iter
    (fun (n, d) -> Option.iter (Printf.eprintf "  known defect %s: %s\n" n) d)
    known;
  if traced then print_table ~title:"  layers (traced pass)" layer_ms;
  let errors =
    schema_errors schema.end_to_end end_to_end
    @ if traced then schema_errors schema.per_layer layer_ms else []
  in
  List.iter (Printf.eprintf "perf: schema: %s\n") errors;
  let promised, ms =
    if traced then (schema.per_layer, layer_ms) else (schema.end_to_end, end_to_end)
  in
  print_endline
    (summary_line ~checks
       (List.filter_map
          (fun (n, _) -> Option.map (fun m -> (n, m)) (List.assoc_opt n ms))
          promised));
  if errors <> [] || (o.check && checks.W.failed > 0) then 2 else 0

(* [--workload all]: one child process per workload. *)
let run_all argv =
  let args name =
    Array.mapi
      (fun i a ->
        if i = 0 then Sys.executable_name
        else if argv.(i - 1) = "--workload" then name
        else a)
      argv
  in
  List.fold_left
    (fun code (w : W.t) ->
      flush_all ();
      let pid =
        Unix.create_process Sys.executable_name (args w.W.name) Unix.stdin
          Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED c -> max code c
      | _ -> max code 2)
    0 W.all

let () =
  let o = parse Sys.argv in
  let schema = load_schema () in
  let expected = read_json "bench/perf/expected.json" in
  if o.workload = "all" then begin
    (match o.trace with
    | Some file when file <> "" ->
      die "--trace %s would be written by every workload; with --workload all \
           use --trace 1 (one perf_spans_<workload>.json each)" file
    | _ -> ());
    exit (run_all Sys.argv)
  end
  else
    match List.find_opt (fun (w : W.t) -> w.W.name = o.workload) W.all with
    | Some w -> exit (run_workload o w schema expected)
    | None ->
      die "unknown workload %S (one of: all, %s)" o.workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all))
