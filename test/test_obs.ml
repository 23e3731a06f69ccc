(* Tests for the telemetry subsystem: JSON printer/parser, metrics
   registry, event journal, Perfetto export, and the instrumented
   runtime end to end. *)

open Tilelink_obs
open Tilelink_core
open Tilelink_machine
open Tilelink_workloads

let check_float = Alcotest.(check (float 1e-9))

let string_contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let sample_doc =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("off", Json.Bool false);
      ("int", Json.Num 42.0);
      ("frac", Json.Num 2.5);
      ("neg", Json.Num (-0.25));
      ("text", Json.Str "a\"b\\c\nd\te");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ("nested", Json.List [ Json.Num 1.0; Json.Obj [ ("k", Json.Str "v") ] ]);
    ]

let test_json_roundtrip () =
  let compact = Json.to_string sample_doc in
  let pretty = Json.to_string ~indent:true sample_doc in
  Alcotest.(check bool)
    "compact reparses to the same AST" true
    (Json.parse_exn compact = sample_doc);
  Alcotest.(check bool)
    "pretty reparses to the same AST" true
    (Json.parse_exn pretty = sample_doc)

let test_json_parse_escapes () =
  Alcotest.(check bool)
    "standard and unicode escapes" true
    (Json.parse_exn "\"a\\\"b\\n\\t\\u0041\\u00e9\""
    = Json.Str "a\"b\n\tA\xc3\xa9")

let test_json_parse_errors () =
  let bad input =
    match Json.parse input with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unterminated object" true (bad "{");
  Alcotest.(check bool) "trailing garbage" true (bad "1 2");
  Alcotest.(check bool) "bare word" true (bad "nope");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "missing colon" true (bad "{\"a\" 1}")

let test_json_accessors () =
  let doc = Json.parse_exn {|{"a": 1.5, "b": [1, 2], "c": "s"}|} in
  Alcotest.(check (option (float 1e-9)))
    "member + to_float" (Some 1.5)
    (Option.bind (Json.member "a" doc) Json.to_float);
  Alcotest.(check int) "to_list length" 2
    (List.length (Json.to_list (Option.get (Json.member "b" doc))));
  Alcotest.(check (option string))
    "to_str" (Some "s")
    (Option.bind (Json.member "c" doc) Json.to_str);
  Alcotest.(check bool) "missing member" true (Json.member "zz" doc = None);
  Alcotest.(check bool) "member on non-obj" true
    (Json.member "a" (Json.Num 1.0) = None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_counter_monotonic () =
  let m = Metrics.create () in
  Metrics.inc m "ops";
  Metrics.inc m ~by:5 "ops";
  Alcotest.(check (option int)) "accumulates" (Some 6)
    (Metrics.counter_value m "ops");
  Alcotest.(check bool) "negative increment rejected" true
    (try
       Metrics.inc m ~by:(-1) "ops";
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (option int)) "unchanged after rejection" (Some 6)
    (Metrics.counter_value m "ops")

let test_gauges () =
  let m = Metrics.create () in
  Metrics.set_gauge m "temp" 2.5;
  Metrics.add_gauge m "temp" 0.5;
  Alcotest.(check (option (float 1e-9)))
    "set then add" (Some 3.0) (Metrics.gauge_value m "temp");
  Metrics.set_gauge m "temp" (-1.0);
  Alcotest.(check (option (float 1e-9)))
    "gauges may go down" (Some (-1.0)) (Metrics.gauge_value m "temp")

(* Bucket 0 covers (-inf, 1]; bucket i covers (2^(i-1), 2^i]; bucket 27
   is the +Inf overflow. *)
let test_bucket_boundaries () =
  let cases =
    [
      (0.0, 0); (0.5, 0); (1.0, 0); (1.0001, 1); (2.0, 1); (2.5, 2);
      (4.0, 2); (4.1, 3); (67108864.0, 26) (* 2^26 *); (67108865.0, 27);
      (1e12, 27);
    ]
  in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_index %g" v)
        expected (Metrics.bucket_index v))
    cases

let test_histogram_summary () =
  let m = Metrics.create () in
  for i = 1 to 100 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  let s = Option.get (Metrics.summary m "lat") in
  Alcotest.(check int) "count" 100 s.Metrics.count;
  check_float "sum" 5050.0 s.Metrics.sum;
  check_float "mean" 50.5 s.Metrics.mean;
  check_float "min" 1.0 s.Metrics.min;
  check_float "max" 100.0 s.Metrics.max;
  check_float "p50 nearest-rank" 50.0 s.Metrics.p50;
  check_float "p95 nearest-rank" 95.0 s.Metrics.p95;
  check_float "p99 nearest-rank" 99.0 s.Metrics.p99;
  Alcotest.(check bool) "absent histogram" true
    (Metrics.summary m "nope" = None)

let test_merged_summary () =
  let m = Metrics.create () in
  Metrics.observe m "wait_us.pc" 1.0;
  Metrics.observe m "wait_us.pc" 3.0;
  Metrics.observe m "wait_us.peer" 5.0;
  Metrics.observe m "other" 100.0;
  let s = Option.get (Metrics.merged_summary m ~prefix:"wait_us.") in
  Alcotest.(check int) "pools only the prefix" 3 s.Metrics.count;
  check_float "pooled max" 5.0 s.Metrics.max;
  check_float "pooled sum" 9.0 s.Metrics.sum;
  Alcotest.(check bool) "no match" true
    (Metrics.merged_summary m ~prefix:"zz." = None)

let test_disabled_registry_records_nothing () =
  let m = Metrics.create ~enabled:false () in
  Metrics.inc m "ops";
  Metrics.set_gauge m "g" 1.0;
  Metrics.observe m "h" 1.0;
  Alcotest.(check bool) "no counter" true (Metrics.counter_value m "ops" = None);
  Alcotest.(check bool) "no gauge" true (Metrics.gauge_value m "g" = None);
  Alcotest.(check bool) "no histogram" true (Metrics.summary m "h" = None);
  Alcotest.(check (list string)) "no names" [] (Metrics.counter_names m)

let test_prometheus_snapshot () =
  let m = Metrics.create () in
  Metrics.inc m "ops.total";
  Metrics.set_gauge m "temp" 2.5;
  let text = Metrics.to_prometheus m in
  Alcotest.(check string)
    "counter + gauge exposition"
    "# TYPE tilelink_ops_total counter\n\
     tilelink_ops_total 1\n\
     # TYPE tilelink_temp gauge\n\
     tilelink_temp 2.5\n"
    text

let test_prometheus_histogram_lines () =
  let m = Metrics.create () in
  Metrics.observe m "wait_us.pc" 0.5;
  Metrics.observe m "wait_us.pc" 3.0;
  let text = Metrics.to_prometheus m in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" line) true
        (string_contains text line))
    [
      "# TYPE tilelink_wait_us_pc histogram";
      "tilelink_wait_us_pc_bucket{le=\"1\"} 1";
      "tilelink_wait_us_pc_bucket{le=\"2\"} 1";
      "tilelink_wait_us_pc_bucket{le=\"4\"} 2";
      "tilelink_wait_us_pc_bucket{le=\"+Inf\"} 2";
      "tilelink_wait_us_pc_sum 3.5";
      "tilelink_wait_us_pc_count 2";
    ]

let test_metrics_json_snapshot () =
  let m = Metrics.create () in
  Metrics.inc m "ops";
  Metrics.set_gauge m "temp" 2.5;
  Alcotest.(check string)
    "compact export"
    {|{"counters":{"ops":1},"gauges":{"temp":2.5},"histograms":{}}|}
    (Json.to_string (Metrics.to_json m));
  Metrics.observe m "lat" 3.0;
  let doc = Json.parse_exn (Json.to_string (Metrics.to_json m)) in
  let lat =
    Option.get
      (Json.member "lat" (Option.get (Json.member "histograms" doc)))
  in
  Alcotest.(check (option (float 1e-9)))
    "histogram p99 in export" (Some 3.0)
    (Option.bind (Json.member "p99" lat) Json.to_float)

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

let signal i =
  Journal.Signal_set { key = "k"; rank = 0; amount = 1; value = i }

let test_journal_order_and_wrap () =
  let j = Journal.create ~capacity:4 () in
  for i = 1 to 6 do
    Journal.record j ~t:(float_of_int i) (signal i)
  done;
  Alcotest.(check int) "length capped" 4 (Journal.length j);
  Alcotest.(check int) "dropped oldest" 2 (Journal.dropped j);
  let values =
    List.map
      (fun (e : Journal.entry) ->
        match e.Journal.event with
        | Journal.Signal_set { value; _ } -> value
        | _ -> -1)
      (Journal.entries j)
  in
  Alcotest.(check (list int)) "oldest-first, newest kept" [ 3; 4; 5; 6 ]
    values

(* Regression: with exactly [capacity] entries recorded, the write
   cursor sits at [next = capacity] without having wrapped — [entries]
   used to hit the one empty-looking slot arrangement and die on
   [assert false]. *)
let test_journal_exact_capacity_boundary () =
  let j = Journal.create ~capacity:4 () in
  for i = 1 to 4 do
    Journal.record j ~t:(float_of_int i) (signal i)
  done;
  Alcotest.(check int) "full, nothing dropped" 4 (Journal.length j);
  Alcotest.(check int) "no drops at the boundary" 0 (Journal.dropped j);
  let values =
    List.map
      (fun (e : Journal.entry) ->
        match e.Journal.event with
        | Journal.Signal_set { value; _ } -> value
        | _ -> -1)
      (Journal.entries j)
  in
  Alcotest.(check (list int)) "oldest first at the boundary" [ 1; 2; 3; 4 ]
    values

let test_journal_one_past_capacity () =
  let j = Journal.create ~capacity:4 () in
  for i = 1 to 5 do
    Journal.record j ~t:(float_of_int i) (signal i)
  done;
  Alcotest.(check int) "still full" 4 (Journal.length j);
  Alcotest.(check int) "oldest dropped" 1 (Journal.dropped j);
  let values =
    List.map
      (fun (e : Journal.entry) ->
        match e.Journal.event with
        | Journal.Signal_set { value; _ } -> value
        | _ -> -1)
      (Journal.entries j)
  in
  Alcotest.(check (list int)) "window slid by one" [ 2; 3; 4; 5 ] values

let test_journal_disabled () =
  let j = Journal.create ~enabled:false () in
  Journal.record j ~t:1.0 (signal 1);
  Alcotest.(check int) "records nothing" 0 (Journal.length j);
  Alcotest.(check int) "drops nothing" 0 (Journal.dropped j)

let test_journal_event_names () =
  let names =
    List.map Journal.event_name
      [
        signal 1;
        Journal.Wait_begin { key = "k"; rank = 0; threshold = 1 };
        Journal.Wait_end { key = "k"; rank = 0; threshold = 1; started = 0.0 };
        Journal.Tile_push { label = "t"; src = 0; dst = 1; bytes = 8.0 };
        Journal.Tile_pull { label = "t"; src = 1; dst = 0; bytes = 8.0 };
        Journal.Channel_acquire { rank = 0; base = 0; extent = 4 };
        Journal.Channel_release { rank = 0; base = 0; extent = 4 };
        Journal.Deadlock { message = "stuck"; blocked = 3 };
      ]
  in
  Alcotest.(check (list string))
    "stable names"
    [
      "signal_set"; "wait_begin"; "wait_end"; "tile_push"; "tile_pull";
      "channel_acquire"; "channel_release"; "deadlock";
    ]
    names

let test_journal_json_parses () =
  let j = Journal.create () in
  Journal.record j ~t:1.0 (signal 1);
  Journal.record j ~t:2.0
    (Journal.Deadlock { message = "q\"uote"; blocked = 1 });
  match Json.parse (Json.to_string (Journal.to_json j)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "journal export not parseable: %s" msg

(* ------------------------------------------------------------------ *)
(* Telemetry handle                                                     *)
(* ------------------------------------------------------------------ *)

let test_telemetry_active () =
  Alcotest.(check bool) "absent" false (Telemetry.active None);
  let off = Telemetry.create ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Telemetry.active (Some off));
  Alcotest.(check bool) "disabled metrics too" false
    (Metrics.enabled (Telemetry.metrics off));
  let on = Telemetry.create () in
  Alcotest.(check bool) "enabled" true (Telemetry.active (Some on))

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                      *)
(* ------------------------------------------------------------------ *)

let synthetic_trace () =
  let tr = Tilelink_sim.Trace.create () in
  Tilelink_sim.Trace.add tr ~rank:0 ~lane:Tilelink_sim.Trace.Comm_sm
    ~label:"push" ~t0:0.0 ~t1:1.0;
  Tilelink_sim.Trace.add tr ~rank:1 ~lane:Tilelink_sim.Trace.Wait
    ~label:"wait" ~t0:0.5 ~t1:1.0;
  tr

let synthetic_journal () =
  let j = Journal.create () in
  Journal.record j ~t:0.5
    (Journal.Wait_begin { key = "sig"; rank = 1; threshold = 1 });
  Journal.record j ~t:1.0
    (Journal.Signal_set { key = "sig"; rank = 0; amount = 1; value = 1 });
  Journal.record j ~t:1.0
    (Journal.Wait_end { key = "sig"; rank = 1; threshold = 1; started = 0.5 });
  j

let export_events () =
  let doc =
    Perfetto.export ~trace:(synthetic_trace ()) ~journal:(synthetic_journal ())
      ()
  in
  Json.to_list doc

let phase name event =
  match Option.bind (Json.member "ph" event) Json.to_str with
  | Some p -> p = name
  | None -> false

let test_perfetto_flow_pair () =
  let events = export_events () in
  let starts = List.filter (phase "s") events in
  let finishes = List.filter (phase "f") events in
  Alcotest.(check int) "one flow start" 1 (List.length starts);
  Alcotest.(check int) "one flow finish" 1 (List.length finishes);
  let id e = Option.bind (Json.member "id" e) Json.to_float in
  Alcotest.(check bool) "shared flow id" true
    (id (List.hd starts) = id (List.hd finishes));
  Alcotest.(check bool) "finish binds enclosing slice" true
    (Json.member "bp" (List.hd finishes) = Some (Json.Str "e"))

let test_perfetto_counter_track () =
  let events = export_events () in
  let counters = List.filter (phase "C") events in
  Alcotest.(check bool) "has counter samples" true (counters <> []);
  Alcotest.(check bool) "outstanding-signals track present" true
    (List.exists
       (fun e ->
         Option.bind (Json.member "name" e) Json.to_str
         = Some "outstanding signals")
       counters)

let test_perfetto_deadlock_instant () =
  let j = synthetic_journal () in
  Journal.record j ~t:2.0 (Journal.Deadlock { message = "stuck"; blocked = 2 });
  let events =
    Json.to_list (Perfetto.export ~trace:(synthetic_trace ()) ~journal:j ())
  in
  Alcotest.(check bool) "instant emitted" true
    (List.exists (phase "i") events)

let test_perfetto_string_parses () =
  let s =
    Perfetto.export_string ~trace:(synthetic_trace ())
      ~journal:(synthetic_journal ()) ()
  in
  match Json.parse s with
  | Ok (Json.List (_ :: _)) -> ()
  | Ok _ -> Alcotest.fail "expected a non-empty event array"
  | Error msg -> Alcotest.failf "perfetto export not parseable: %s" msg

(* The plain simulator trace export must also stay parseable by our
   own reader — profile --check depends on it. *)
let test_chrome_json_parses () =
  let s = Tilelink_sim.Trace.to_chrome_json (synthetic_trace ()) in
  match Json.parse s with
  | Ok (Json.List events) ->
    Alcotest.(check bool) "has duration events" true
      (List.exists (phase "X") events)
  | Ok _ -> Alcotest.fail "expected an event array"
  | Error msg -> Alcotest.failf "chrome json not parseable: %s" msg

(* ------------------------------------------------------------------ *)
(* Instrumented runtime, end to end                                     *)
(* ------------------------------------------------------------------ *)

let small_config =
  {
    Design_space.comm_tile = (2, 2);
    compute_tile = (2, 3);
    comm_order = Tile.Row_major;
    compute_order = Tile.Row_major;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

let small_spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 }

let test_profiled_run_populates_telemetry () =
  let telemetry = Telemetry.create () in
  let cluster, result =
    Profiled.run ~telemetry ~spec_gpu:Calib.test_machine
      (Mlp.ag_gemm_program ~config:small_config small_spec
         ~spec_gpu:Calib.test_machine)
  in
  Alcotest.(check bool) "positive makespan" true
    (result.Runtime.makespan > 0.0);
  Alcotest.(check bool) "trace recorded" true
    (Tilelink_sim.Trace.spans (Cluster.trace cluster) <> []);
  let m = Telemetry.metrics telemetry in
  Alcotest.(check bool) "wait histograms populated" true
    (Metrics.merged_summary m ~prefix:"wait_us." <> None);
  Alcotest.(check bool) "compute tiles counted" true
    (match Metrics.counter_value m "tiles.compute" with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check (option (float 1e-9)))
    "makespan gauge mirrors the result"
    (Some result.Runtime.makespan)
    (Metrics.gauge_value m "engine.makespan_us");
  Alcotest.(check bool) "journal saw signal traffic" true
    (Journal.length (Telemetry.journal telemetry) > 0);
  Alcotest.(check bool) "lane utilization gauges" true
    (Metrics.gauge_value m "util.sm.rank0" <> None);
  Alcotest.(check bool) "causal spans recorded" true
    (Span.spans (Telemetry.spans telemetry) <> []);
  Alcotest.(check bool) "compute and copy spans present" true
    (let spans = Span.spans (Telemetry.spans telemetry) in
     List.exists (fun s -> s.Span.kind = Span.Compute) spans
     && List.exists (fun s -> s.Span.kind = Span.Copy) spans)

let test_disabled_telemetry_is_invisible () =
  let run telemetry =
    let cluster = Cluster.create Calib.test_machine ~world_size:2 in
    let program =
      Mlp.ag_gemm_program ~config:small_config small_spec
        ~spec_gpu:Calib.test_machine
    in
    (Runtime.run ?telemetry cluster program).Runtime.makespan
  in
  let plain = run None in
  let off = Telemetry.create ~enabled:false () in
  let with_off = run (Some off) in
  check_float "identical makespan with telemetry off" plain with_off;
  Alcotest.(check (list string))
    "no metrics recorded" []
    (Metrics.histogram_names (Telemetry.metrics off));
  Alcotest.(check int) "no journal entries" 0
    (Journal.length (Telemetry.journal off));
  Alcotest.(check int) "no spans" 0
    (List.length (Span.spans (Telemetry.spans off)))

(* Recording from several domains at once must lose nothing: the
   registries are shared by the parallel backend's worker domains. *)
let test_concurrent_recording () =
  let metrics = Metrics.create () in
  let journal = Journal.create ~capacity:100_000 () in
  let spans = Span.create () in
  let per_domain = 2_000 and n_domains = 4 in
  let worker_body d () =
    for i = 1 to per_domain do
      Metrics.inc metrics "shared.counter";
      Metrics.add_gauge metrics "shared.gauge" 1.0;
      Metrics.observe metrics "shared.hist" (float_of_int ((i mod 7) + 1));
      Journal.record journal ~t:(float_of_int i)
        (Journal.Signal_set
           { key = "pc[0][0]"; rank = d; amount = 1; value = i });
      Span.record_task spans ~kind:Span.Compute
        ~label:(Printf.sprintf "d%d/%d" d i)
        ~rank:d ~worker:d ~t0:0.0 ~t1:1.0
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker_body d)) in
  List.iter Domain.join domains;
  let total = n_domains * per_domain in
  Alcotest.(check (option int))
    "counter total" (Some total)
    (Metrics.counter_value metrics "shared.counter");
  Alcotest.(check (option (float 0.0)))
    "gauge total"
    (Some (float_of_int total))
    (Metrics.gauge_value metrics "shared.gauge");
  (match Metrics.summary metrics "shared.hist" with
  | None -> Alcotest.fail "histogram missing"
  | Some s -> Alcotest.(check int) "histogram count" total s.Metrics.count);
  Alcotest.(check int) "journal entries" total (Journal.length journal);
  Alcotest.(check int) "journal dropped" 0 (Journal.dropped journal);
  Alcotest.(check int) "span count" total (List.length (Span.spans spans));
  (* Ids must be dense and unique: the id is the store index. *)
  let ids = List.map (fun s -> s.Span.id) (Span.spans spans) in
  Alcotest.(check (list int)) "span ids dense" (List.init total Fun.id) ids

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter monotonic" `Quick
            test_counter_monotonic;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "bucket boundaries" `Quick
            test_bucket_boundaries;
          Alcotest.test_case "histogram summary" `Quick
            test_histogram_summary;
          Alcotest.test_case "merged summary" `Quick test_merged_summary;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_registry_records_nothing;
          Alcotest.test_case "prometheus snapshot" `Quick
            test_prometheus_snapshot;
          Alcotest.test_case "prometheus histogram" `Quick
            test_prometheus_histogram_lines;
          Alcotest.test_case "json snapshot" `Quick
            test_metrics_json_snapshot;
        ] );
      ( "journal",
        [
          Alcotest.test_case "order and wrap" `Quick
            test_journal_order_and_wrap;
          Alcotest.test_case "exact capacity boundary" `Quick
            test_journal_exact_capacity_boundary;
          Alcotest.test_case "one past capacity" `Quick
            test_journal_one_past_capacity;
          Alcotest.test_case "disabled" `Quick test_journal_disabled;
          Alcotest.test_case "event names" `Quick test_journal_event_names;
          Alcotest.test_case "json parses" `Quick test_journal_json_parses;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "active guard" `Quick test_telemetry_active ] );
      ( "domain-safety",
        [
          Alcotest.test_case "concurrent recording" `Quick
            test_concurrent_recording;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "flow pair" `Quick test_perfetto_flow_pair;
          Alcotest.test_case "counter track" `Quick
            test_perfetto_counter_track;
          Alcotest.test_case "deadlock instant" `Quick
            test_perfetto_deadlock_instant;
          Alcotest.test_case "export parses" `Quick
            test_perfetto_string_parses;
          Alcotest.test_case "chrome json parses" `Quick
            test_chrome_json_parses;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "profiled run populates" `Quick
            test_profiled_run_populates_telemetry;
          Alcotest.test_case "disabled is invisible" `Quick
            test_disabled_telemetry_is_invisible;
        ] );
    ]
