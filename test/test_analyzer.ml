(* Tests for the whole-program protocol analyzer: static notify/wait
   matching through the channel key space, cross-rank deadlock cycles,
   happens-before data races, mapping cross-checks, the seeded mutation
   corpus, and the Runtime/Tune wiring. *)

open Tilelink_core
open Tilelink_machine
open Tilelink_workloads

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let task label instrs = { Program.label; instrs }

let role ?(name = "sync") ?(lane = Tilelink_sim.Trace.Comm_sm) tasks =
  {
    Program.role_name = name;
    resource = Program.Sm_partition 1;
    lane;
    tasks;
  }

let notify ?(amount = 1) target =
  Instr.Notify { target; amount; releases = [] }

let wait ?(guards = []) ~threshold target =
  Instr.Wait { target; threshold; guards }

let pc ~rank ~channel = Instr.Pc { rank; channel }
let peer ~src ~dst = Instr.Peer { src; dst; channel = 0 }

(* Two ranks, each waiting for the other's signal before sending its
   own: a textbook circular wait that never makes progress. *)
let deadlock_program () =
  let plan rank =
    let other = 1 - rank in
    [
      role ~name:"ring"
        [
          task "step"
            [
              wait ~threshold:1 (peer ~src:other ~dst:rank);
              notify (peer ~src:rank ~dst:other);
            ];
        ];
    ]
  in
  Program.create ~name:"deadlock" ~world_size:2 ~pc_channels:1
    ~peer_channels:1
    [| plan 0; plan 1 |]

(* One rank: [notifies] signals of amount 1 against a single consumer
   waiting for [threshold]. *)
let counter_program ~notifies ~threshold =
  let producer =
    task "produce" (List.init notifies (fun _ -> notify (pc ~rank:0 ~channel:0)))
  in
  let consumer =
    if threshold = 0 then []
    else [ task "consume" [ wait ~threshold (pc ~rank:0 ~channel:0) ] ]
  in
  Program.create ~name:"counter" ~world_size:1 ~pc_channels:1
    ~peer_channels:1
    [| [ role ~name:"producer" [ producer ]; role ~name:"consumer" consumer ] |]

let mlp_config ~world ~comm_tile ~stages =
  {
    Design_space.comm_tile = (comm_tile, 128);
    compute_tile = (2, 2);
    comm_order = Tile.Ring_from_self { segments = world };
    compute_order = Tile.Ring_from_self { segments = world };
    binding = Design_space.Comm_on_sm 1;
    stages;
    micro_block = 0;
  }

let mlp_program ?transfer ~world ~comm_tile ~stages () =
  Mlp.ag_gemm_program ?transfer
    ~config:(mlp_config ~world ~comm_tile ~stages)
    { Mlp.m = 8 * world; k = 4; n = 6; world_size = world }
    ~spec_gpu:Calib.test_machine

(* The chaos harness's MLP kernel at world 16, as a topology run of
   islands2x8 or hetero16 builds it. *)
let chaos_world = 16

let chaos_mlp_program () =
  Tilelink_chaos.Harness.program ~world:chaos_world
    Tilelink_chaos.Harness.Mlp_ag_gemm

(* Failover's survivor order: intra-island survivors first. *)
let intra_island_first topology ~dead =
  let layout = Topology.layout topology ~world_size:chaos_world in
  let home = Topology.island_of layout dead in
  let intra, cross =
    List.filter (fun r -> r <> dead) (List.init chaos_world Fun.id)
    |> List.partition (fun r -> Topology.island_of layout r = home)
  in
  intra @ cross

let find_kind report name =
  List.filter (fun d -> Analyzer.kind_name d.Analyzer.kind = name)
    report.Analyzer.diags

let structured d = d.Analyzer.key <> "" && d.Analyzer.rank >= 0

(* ------------------------------------------------------------------ *)
(* Matching diagnostics                                                *)
(* ------------------------------------------------------------------ *)

let test_unmatched_wait () =
  let report = Analyzer.analyze (counter_program ~notifies:1 ~threshold:3) in
  Alcotest.(check bool) "not ok" false (Analyzer.ok report);
  match find_kind report "unmatched_wait" with
  | [ d ] ->
    Alcotest.(check string) "key" "pc[0][0]" d.Analyzer.key;
    Alcotest.(check int) "rank" 0 d.Analyzer.rank;
    Alcotest.(check (option int)) "channel" (Some 0) d.Analyzer.channel;
    (match d.Analyzer.kind with
    | Analyzer.Unmatched_wait { threshold; available } ->
      Alcotest.(check int) "threshold" 3 threshold;
      Alcotest.(check int) "available" 1 available
    | _ -> Alcotest.fail "wrong kind payload")
  | ds -> Alcotest.failf "expected one unmatched_wait, got %d" (List.length ds)

let test_unconsumed_notify_is_warning () =
  let report = Analyzer.analyze (counter_program ~notifies:2 ~threshold:0) in
  Alcotest.(check bool) "warnings do not fail the program" true
    (Analyzer.ok report);
  match find_kind report "unconsumed_notify" with
  | [ d ] ->
    Alcotest.(check string) "severity" "warning"
      (Analyzer.severity_to_string d.Analyzer.severity);
    Alcotest.(check string) "key" "pc[0][0]" d.Analyzer.key
  | ds ->
    Alcotest.failf "expected one unconsumed_notify, got %d" (List.length ds)

let test_epoch_reuse () =
  let report = Analyzer.analyze (counter_program ~notifies:2 ~threshold:1) in
  Alcotest.(check bool) "not ok" false (Analyzer.ok report);
  match find_kind report "epoch_reuse" with
  | [ d ] -> (
    match d.Analyzer.kind with
    | Analyzer.Epoch_reuse { available; max_threshold; waiters } ->
      Alcotest.(check int) "available" 2 available;
      Alcotest.(check int) "max threshold" 1 max_threshold;
      Alcotest.(check int) "waiters" 1 waiters
    | _ -> Alcotest.fail "wrong kind payload")
  | ds -> Alcotest.failf "expected one epoch_reuse, got %d" (List.length ds)

let test_clean_counter_ok () =
  let report = Analyzer.analyze (counter_program ~notifies:1 ~threshold:1) in
  Alcotest.(check bool) "ok" true (Analyzer.ok report);
  Alcotest.(check int) "no diags" 0 (List.length report.Analyzer.diags)

(* ------------------------------------------------------------------ *)
(* Deadlock cycles                                                     *)
(* ------------------------------------------------------------------ *)

let test_deadlock_cycle () =
  let report = Analyzer.analyze (deadlock_program ()) in
  Alcotest.(check bool) "not ok" false (Analyzer.ok report);
  match find_kind report "deadlock_cycle" with
  | [] -> Alcotest.fail "no deadlock_cycle diagnostic"
  | d :: _ -> (
    Alcotest.(check bool) "structured" true (structured d);
    match d.Analyzer.kind with
    | Analyzer.Deadlock_cycle { cycle } ->
      Alcotest.(check int) "two edges" 2 (List.length cycle);
      let ranks =
        List.sort_uniq compare
          (List.map (fun e -> e.Analyzer.e_rank) cycle)
      in
      Alcotest.(check (list int)) "both ranks in the cycle" [ 0; 1 ] ranks;
      List.iter
        (fun e ->
          Alcotest.(check bool) "edge has a key" true
            (e.Analyzer.e_key <> "");
          Alcotest.(check bool) "edge names its producer" true
            (e.Analyzer.e_producer_rank = 1 - e.Analyzer.e_rank))
        cycle
    | _ -> Alcotest.fail "wrong kind payload")

(* ------------------------------------------------------------------ *)
(* Data races                                                          *)
(* ------------------------------------------------------------------ *)

let test_read_before_acquire_race () =
  let a = Instr.access ~buffer:"buf" ~row:(0, 2) ~col:(0, 2) () in
  let program =
    Program.create ~name:"race" ~world_size:1 ~pc_channels:1
      ~peer_channels:1
      [|
        [
          role ~name:"producer" [ task "p" [ notify (pc ~rank:0 ~channel:0) ] ];
          role ~name:"consumer"
            [
              task "c"
                [
                  Instr.Load { access = a };
                  wait ~guards:[ a ] ~threshold:1 (pc ~rank:0 ~channel:0);
                ];
            ];
        ];
      |]
  in
  let report = Analyzer.analyze program in
  Alcotest.(check bool) "not ok" false (Analyzer.ok report);
  match find_kind report "data_race" with
  | [ d ] -> (
    Alcotest.(check string) "key" "pc[0][0]" d.Analyzer.key;
    match d.Analyzer.kind with
    | Analyzer.Data_race { race = Consistency.Read_before_acquire; _ } -> ()
    | _ -> Alcotest.fail "expected a read-before-acquire race")
  | ds -> Alcotest.failf "expected one data_race, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Targets outside the channel layout                                  *)
(* ------------------------------------------------------------------ *)

(* Signal targets no builder emits, as a mutant or a hand-written
   program may: a [Pc] channel past [pc_channels] and below 0, a [Pc]
   rank past the world, a [Peer] source past the world and a channel
   past [peer_channels], a negative [Host] destination.  Each is its
   own key, distinct from every in-layout key it could alias by
   arithmetic ([pc[1][-1]] against [pc[0][1]]).  They carry an
   unmatched wait, an unconsumed notify, an epoch reuse, a circular
   wait and a read-before-acquire race, interleaved with in-layout
   keys so first-touch order mixes both.  Its golden rows were
   generated when the analyzer hashed every target. *)
let out_of_layout_program () =
  let a = Instr.access ~buffer:"x" ~row:(0, 2) ~col:(0, 2) () in
  let host_bad = Instr.Host { src = 0; dst = -1 } in
  let plan0 =
    [
      role ~name:"sync"
        [
          task "a"
            [
              notify (pc ~rank:0 ~channel:0);
              notify (pc ~rank:0 ~channel:5);
              notify (pc ~rank:1 ~channel:(-1));
              wait ~threshold:1 (Instr.Peer { src = 3; dst = 0; channel = 0 });
              notify host_bad;
            ];
          task "b"
            [
              wait ~threshold:1 (pc ~rank:0 ~channel:0);
              wait ~threshold:1 (pc ~rank:0 ~channel:5);
              wait ~threshold:1 (pc ~rank:0 ~channel:1);
              notify (peer ~src:0 ~dst:1);
              notify (Instr.Peer { src = 0; dst = 1; channel = 1 });
            ];
          task "d"
            [
              wait ~threshold:1 (Instr.Peer { src = 5; dst = 0; channel = 2 });
              notify (pc ~rank:7 ~channel:0);
            ];
        ];
    ]
  in
  let plan1 =
    [
      role ~name:"sync"
        [
          task "c"
            [
              wait ~threshold:1 (peer ~src:0 ~dst:1);
              notify ~amount:2 (pc ~rank:1 ~channel:1);
              Instr.Load { access = a };
              wait ~guards:[ a ] ~threshold:2 host_bad;
              wait ~threshold:1 (pc ~rank:1 ~channel:1);
              wait ~threshold:1 (pc ~rank:1 ~channel:(-1));
            ];
          task "e"
            [
              wait ~threshold:1 (pc ~rank:7 ~channel:0);
              notify (Instr.Peer { src = 5; dst = 0; channel = 2 });
            ];
        ];
    ]
  in
  Program.create ~name:"out_of_layout" ~world_size:2 ~pc_channels:2
    ~peer_channels:1 [| plan0; plan1 |]

(* A negative notify amount breaks the counters' monotonicity, so the
   eager fixpoint's schedule decides what is stuck.  [wait] blocks on
   [key]; [up]'s +1 wakes it, but [down]'s -1 lands before it resumes,
   so it blocks again, and [cross] waits for [wait]'s signal before
   sending the [key] signal [wait] needs: a reported cycle.  Had [wait]
   resumed right after [up], nothing would be stuck.  Its golden rows
   were generated when the fixpoint ran from a queue of every stream in
   traversal order, woken streams appended. *)
let negative_notify_program () =
  let key = pc ~rank:0 ~channel:0 and signal = pc ~rank:0 ~channel:1 in
  Program.create ~name:"negative_notify" ~world_size:1 ~pc_channels:2
    ~peer_channels:1
    [|
      [
        role ~name:"sync"
          [
            task "wait" [ wait ~threshold:1 key; notify signal ];
            task "up" [ notify key ];
            task "down" [ notify ~amount:(-1) key ];
            task "cross" [ wait ~threshold:1 signal; notify key ];
          ];
      ];
    |]

(* A layout too large for a flat slot array keys its targets through
   the structural table instead; the reports must not change.  Each of the first
   shipped programs and its mutants is re-created with enough [Pc]
   channels per rank to pass any slot-array limit, which moves no
   target. *)
let test_large_layout_reports_unchanged () =
  let widen p =
    Program.create ~name:(Program.name p) ~world_size:(Program.world_size p)
      ~pc_channels:(1 lsl 20) ~peer_channels:p.Program.peer_channels
      (Program.plans p)
  in
  let json p =
    Tilelink_obs.Json.to_string (Analyzer.report_to_json (Analyzer.analyze p))
  in
  List.iter
    (fun (name, program) ->
      List.iter
        (fun (what, p) ->
          Alcotest.(check string) (name ^ what) (json p) (json (widen p)))
        (("", program)
        :: List.map
             (fun (mutation, mutant) -> ("/" ^ mutation, mutant))
             (Analyzer.mutation_corpus ~seed:17 program)))
    (List.filteri (fun i _ -> i < 4) (Suite.programs ())
    @ [ ("out_of_layout", out_of_layout_program ()) ])

(* ------------------------------------------------------------------ *)
(* Clean workloads and the mutation corpus                             *)
(* ------------------------------------------------------------------ *)

let test_clean_workload_passes () =
  List.iter
    (fun transfer ->
      let program = mlp_program ~transfer ~world:2 ~comm_tile:2 ~stages:2 () in
      let report = Analyzer.analyze program in
      Alcotest.(check bool) "no errors" true (Analyzer.ok report);
      Alcotest.(check bool) "counts populated" true
        (report.Analyzer.keys > 0
        && report.Analyzer.notifies > 0
        && report.Analyzer.waits > 0))
    [ `Pull; `Push ]

let all_mutations =
  [
    "dropped_notify";
    "notify_epoch_off_by_one";
    "swapped_rank";
    "unsafe_hoist";
    "wait_epoch_off_by_one";
  ]

let test_mutation_corpus_all_flagged () =
  let program = mlp_program ~world:2 ~comm_tile:2 ~stages:2 () in
  let corpus = Analyzer.mutation_corpus ~seed:17 program in
  Alcotest.(check (list string))
    "every mutation applies to the MLP kernel" all_mutations
    (List.sort compare (List.map fst corpus));
  List.iter
    (fun (name, mutant) ->
      match Analyzer.errors (Analyzer.analyze mutant) with
      | [] -> Alcotest.failf "mutation %s not flagged" name
      | errors ->
        Alcotest.(check bool)
          (Printf.sprintf "%s diagnostics are structured" name)
          true
          (List.for_all structured errors))
    corpus

let test_mutation_corpus_seeded () =
  let program = mlp_program ~world:2 ~comm_tile:2 ~stages:2 () in
  let render corpus =
    List.map
      (fun (name, mutant) -> (name, (mutant : Program.t).Program.name))
      corpus
  in
  Alcotest.(check (list (pair string string)))
    "same seed, same corpus"
    (render (Analyzer.mutation_corpus ~seed:5 program))
    (render (Analyzer.mutation_corpus ~seed:5 program))

(* ------------------------------------------------------------------ *)
(* Mapping cross-check                                                 *)
(* ------------------------------------------------------------------ *)

let mapping_program ~mapping ~extra_threshold =
  let world = Mapping.ranks mapping in
  let plan rank =
    let expected =
      Mapping.expected mapping
        ~channel:(Mapping.global_channel mapping ~rank ~local:0)
    in
    [
      role ~name:"producer"
        [
          task "p"
            (List.init expected (fun _ -> notify (pc ~rank ~channel:0)));
        ];
      role ~name:"consumer"
        [
          task "c"
            [ wait ~threshold:(expected + extra_threshold) (pc ~rank ~channel:0) ];
        ];
    ]
  in
  Program.create ~name:"mapped" ~world_size:world
    ~pc_channels:(Mapping.channels_per_rank mapping)
    ~peer_channels:1
    (Array.init world plan)

let test_check_against_mapping () =
  let mapping = Mapping.static ~extent:8 ~ranks:2 ~channels_per_rank:2 ~tile:2 () in
  Alcotest.(check int) "clean protocol has no mismatches" 0
    (List.length
       (Analyzer.check_against_mapping
          (mapping_program ~mapping ~extra_threshold:0)
          ~mapping));
  match
    Analyzer.check_against_mapping
      (mapping_program ~mapping ~extra_threshold:1)
      ~mapping
  with
  | [] -> Alcotest.fail "over-threshold wait not flagged"
  | d :: _ -> (
    match d.Analyzer.kind with
    | Analyzer.Mapping_mismatch { expected; actual } ->
      Alcotest.(check int) "actual exceeds expected by one" (expected + 1)
        actual
    | _ -> Alcotest.fail "wrong kind payload")

let test_check_against_mapping_layout_guard () =
  let mapping = Mapping.static ~extent:8 ~ranks:4 ~channels_per_rank:1 ~tile:2 () in
  Alcotest.check_raises "rank mismatch rejected"
    (Invalid_argument
       "Analyzer.check_against_mapping: mapping layout does not match program")
    (fun () ->
      ignore
        (Analyzer.check_against_mapping
           (counter_program ~notifies:1 ~threshold:1)
           ~mapping))

(* ------------------------------------------------------------------ *)
(* Elastic remap cross-check                                           *)
(* ------------------------------------------------------------------ *)

(* A protocol driven entirely by a mapping: every local channel of
   every rank gets the mapping's registered number of notifies and a
   consumer waiting for exactly that threshold — so the pre-remap
   program cross-checks clean by construction, and any disagreement
   between how the mapping and the program were remapped surfaces as a
   Mapping_mismatch. *)
let full_mapping_program ~mapping =
  let world = Mapping.ranks mapping in
  let cpr = Mapping.channels_per_rank mapping in
  let plan rank =
    let channels = List.init cpr Fun.id in
    [
      role ~name:"producer"
        [
          task "p"
            (List.concat_map
               (fun local ->
                 let expected =
                   Mapping.expected mapping
                     ~channel:(Mapping.global_channel mapping ~rank ~local)
                 in
                 List.init expected (fun _ ->
                     notify (pc ~rank ~channel:local)))
               channels);
        ];
      role ~name:"consumer"
        [
          task "c"
            (List.filter_map
               (fun local ->
                 let expected =
                   Mapping.expected mapping
                     ~channel:(Mapping.global_channel mapping ~rank ~local)
                 in
                 if expected = 0 then None
                 else Some (wait ~threshold:expected (pc ~rank ~channel:local)))
               channels);
        ];
    ]
  in
  Program.create ~name:"full-mapped" ~world_size:world ~pc_channels:cpr
    ~peer_channels:1
    (Array.init world plan)

(* Remap mapping and program with the same (dead, survivors) and
   re-validate: zero violations, over random world size, channels per
   rank, tile shape, dead rank and survivor order (any non-empty subset
   of the live ranks, in any order). *)
let prop_remap_cross_checks_clean =
  let gen =
    let open QCheck.Gen in
    let* world = int_range 2 8 in
    let* cpr = int_range 1 6 in
    let* tile = oneofl [ 1; 2 ] in
    let* segments = int_range 1 2 in
    let* multiplicity = int_range 1 2 in
    let* dead = int_bound (world - 1) in
    let* order =
      shuffle_l (List.filter (( <> ) dead) (List.init world Fun.id))
    in
    let+ keep = int_range 1 (world - 1) in
    ( (world, cpr, tile * segments, tile, multiplicity),
      (dead, List.filteri (fun i _ -> i < keep) order) )
  in
  let print ((world, cpr, rows_per_channel, tile, multiplicity), (dead, sv)) =
    Printf.sprintf
      "world=%d cpr=%d rows/channel=%d tile=%d multiplicity=%d dead=%d \
       survivors=[%s]"
      world cpr rows_per_channel tile multiplicity dead
      (String.concat ";" (List.map string_of_int sv))
  in
  QCheck.Test.make ~name:"remap cross-checks clean" ~count:60
    (QCheck.make ~print gen)
    (fun ((world, cpr, rows_per_channel, tile, multiplicity), (dead, survivors))
    ->
      let mapping =
        Mapping.static ~multiplicity
          ~extent:(world * cpr * rows_per_channel)
          ~ranks:world ~channels_per_rank:cpr ~tile ()
      in
      let program = full_mapping_program ~mapping in
      let mapping' = Mapping.remap_rank mapping ~dead ~survivors in
      let program' = Fault.remap_program program ~dead ~survivors in
      Analyzer.check_against_mapping program ~mapping = []
      && Analyzer.check_against_mapping program' ~mapping:mapping' = [])

(* Both remaps share one survivor-list validation: each bad list is
   rejected by the mapping remap and the program remap alike. *)
let test_remap_rejects_bad_survivors () =
  let mapping =
    Mapping.static ~extent:16 ~ranks:4 ~channels_per_rank:2 ~tile:2 ()
  in
  let program = full_mapping_program ~mapping in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (what, dead, survivors) ->
      rejects ("Mapping.remap_rank: " ^ what) (fun () ->
          ignore (Mapping.remap_rank mapping ~dead ~survivors));
      rejects ("Fault.remap_program: " ^ what) (fun () ->
          ignore (Fault.remap_program program ~dead ~survivors)))
    [
      ("empty", 1, []);
      ("duplicated", 1, [ 0; 2; 0 ]);
      ("survivor past the world", 1, [ 0; 4 ]);
      ("negative survivor", 1, [ -1; 2 ]);
      ("dead rank listed", 1, [ 0; 1; 2 ]);
      ("dead rank out of range", 4, [ 0; 1 ]);
    ]

(* A broken remap — the program's survivor list silently misses a rank
   the mapping rerouted to — must be flagged with structured
   Mapping_mismatch diagnostics, not pass or crash.  cpr = 4 is chosen
   so both survivor counts grow the stride to the same 6 (keeping the
   layouts comparable) while the round-robin genuinely diverges: the
   program parks rerouted tiles on fresh slots the mapping never
   registered. *)
let test_remap_missing_survivor_flagged () =
  let mapping =
    Mapping.static ~extent:32 ~ranks:4 ~channels_per_rank:4 ~tile:2 ()
  in
  let program = full_mapping_program ~mapping in
  let mapping' = Mapping.remap_rank mapping ~dead:0 ~survivors:[ 1; 2; 3 ] in
  let program' = Fault.remap_program program ~dead:0 ~survivors:[ 1; 2 ] in
  match Analyzer.check_against_mapping program' ~mapping:mapping' with
  | [] -> Alcotest.fail "mismatched survivor lists not flagged"
  | diags ->
    List.iter
      (fun d ->
        match d.Analyzer.kind with
        | Analyzer.Mapping_mismatch { expected; actual } ->
          Alcotest.(check bool) "actual exceeds registered tiles" true
            (actual > expected)
        | _ -> Alcotest.fail "expected Mapping_mismatch diagnostics")
      diags

(* The remap copies only what it reroutes: every instruction whose
   target it leaves unchanged is the original instruction itself, and
   each rerouted one is a [Pc] target of the dead rank. *)
let test_remap_shares_unchanged_instructions () =
  let program = chaos_mlp_program () in
  List.iter
    (fun dead ->
      let remapped =
        Fault.remap_program program ~dead
          ~survivors:(intra_island_first Topology.islands2x8 ~dead)
      in
      let rerouted = ref 0 and shared = ref 0 in
      let target_of = function
        | Instr.Wait { target; _ } | Instr.Notify { target; _ } -> Some target
        | _ -> None
      in
      Array.iter2
        (List.iter2 (fun role role' ->
             List.iter2
               (fun task task' ->
                 List.iter2
                   (fun instr instr' ->
                     if target_of instr = target_of instr' then begin
                       if instr != instr' then
                         Alcotest.failf "dead %d: %s/%s: %s was copied" dead
                           role.Program.role_name task.Program.label
                           (Instr.to_string instr);
                       incr shared
                     end
                     else begin
                       (match target_of instr with
                       | Some (Instr.Pc { rank; _ }) when rank = dead -> ()
                       | _ ->
                         Alcotest.failf "dead %d: %s rerouted" dead
                           (Instr.to_string instr));
                       incr rerouted
                     end)
                   task.Program.instrs task'.Program.instrs)
               role.Program.tasks role'.Program.tasks))
        (Program.plans program) (Program.plans remapped);
      Alcotest.(check bool)
        (Printf.sprintf "dead %d: %d rerouted, %d shared" dead !rerouted
           !shared)
        true
        (!rerouted > 0 && !shared > 0))
    [ 0; 5 ]

(* ------------------------------------------------------------------ *)
(* Wiring: analyzer pre-flight before Runtime.run, Tune skip counts   *)
(* ------------------------------------------------------------------ *)

let test_runtime_preflight_rejects () =
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  Alcotest.(check bool) "Protocol_violation before simulation" true
    (try
       let program = deadlock_program () in
       Analyzer.check_exn program;
       ignore (Runtime.run cluster program);
       false
     with Analyzer.Protocol_violation (_ :: _) -> true);
  Alcotest.(check (float 0.0)) "no simulated time elapsed" 0.0
    (Cluster.now cluster)

let test_runtime_preflight_accepts_clean () =
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program = mlp_program ~world:2 ~comm_tile:2 ~stages:2 () in
  Analyzer.check_exn program;
  let result = Runtime.run cluster program in
  Alcotest.(check bool) "clean program still runs" true
    (result.Runtime.makespan > 0.0)

let test_tune_counts_skipped_race () =
  let configs =
    List.map
      (fun stages -> mlp_config ~world:2 ~comm_tile:2 ~stages)
      [ 1; 2 ]
  in
  let outcome =
    Tune.search_programs ~workload:"test:skipped-race"
      ~build:(fun c ->
        if c.Design_space.stages = 2 then deadlock_program ()
        else mlp_program ~world:2 ~comm_tile:2 ~stages:1 ())
      ~make_cluster:(fun () ->
        Cluster.create Calib.test_machine ~world_size:2)
      configs
  in
  match outcome with
  | None -> Alcotest.fail "no outcome"
  | Some o ->
    Alcotest.(check int) "one candidate rejected statically" 1
      o.Tune.skipped_race;
    Alcotest.(check int) "skip total includes races" 1 o.Tune.skipped;
    Alcotest.(check int) "the clean candidate evaluated" 1
      (List.length o.Tune.evaluated)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_report_json_parses () =
  let report = Analyzer.analyze (deadlock_program ()) in
  let rendered =
    Tilelink_obs.Json.to_string ~indent:true (Analyzer.report_to_json report)
  in
  match Tilelink_obs.Json.parse rendered with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "report JSON not parseable: %s" msg

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Table-2-style AG+GEMM points: the safe pipeliner's output must pass
   both the per-task consistency verifier and the whole-program
   analyzer; whenever the fence-ignoring pipeliner actually breaks the
   stream, the analyzer must flag the program. *)
let prop_pipeline_vs_analyzer =
  QCheck.Test.make
    ~name:"safe pipelining passes the analyzer; unsafe hoists are flagged"
    ~count:24
    QCheck.(
      quad (int_range 1 4) (oneofl [ 2; 4 ]) (oneofl [ 2; 4 ])
        (oneofl [ `Pull; `Push ]))
    (fun (stages, world, comm_tile, transfer) ->
      let program = mlp_program ~transfer ~world ~comm_tile ~stages () in
      let safe = Pipeline.pipeline_program ~stages program in
      let safe_ok =
        Consistency.verify_program safe = Ok ()
        && Analyzer.ok (Analyzer.analyze safe)
      in
      let unsafe = Pipeline.pipeline_program_unsafe ~stages program in
      let unsafe_caught =
        match Consistency.verify_program unsafe with
        | Ok () -> true (* the hoist happened to stay behind every fence *)
        | Error _ -> Analyzer.errors (Analyzer.analyze unsafe) <> []
      in
      safe_ok && unsafe_caught)

(* The four-stage unsafe hoist on the 2-rank MLP kernel is the
   documented miscompile: it must never slip through. *)
let test_unsafe_hoist_always_flagged () =
  let program = mlp_program ~world:2 ~comm_tile:2 ~stages:1 () in
  let unsafe = Pipeline.pipeline_program_unsafe ~stages:4 program in
  (match Consistency.verify_program unsafe with
  | Ok () -> Alcotest.fail "unsafe hoist did not break the stream"
  | Error _ -> ());
  match Analyzer.errors (Analyzer.analyze unsafe) with
  | [] -> Alcotest.fail "analyzer missed the unsafe hoist"
  | errors ->
    Alcotest.(check bool) "flagged as a data race" true
      (List.exists
         (fun d -> Analyzer.kind_name d.Analyzer.kind = "data_race")
         errors)

(* ------------------------------------------------------------------ *)
(* Golden reports                                                      *)
(* ------------------------------------------------------------------ *)

(* The chaos MLP case remapped the way failover remaps it: each dead
   rank's channels move onto its survivors.  These are the programs the
   runtime re-validates once per crash. *)
let remapped_programs () =
  let program = chaos_mlp_program () in
  let remapped topology dead =
    ( Printf.sprintf "mlp_chaos/w16/%s/remap_dead%d" (Topology.name topology)
        dead,
      Fault.remap_program program ~dead
        ~survivors:(intra_island_first topology ~dead) )
  in
  List.init (Topology.ranks_per_island Topology.islands2x8)
    (remapped Topology.islands2x8)
  @ [ remapped Topology.hetero16 11 ]

(* Every shipped program, the out-of-layout and negative-notify
   programs, and each of their seed-17 mutants; then each remapped
   chaos program and its seed-17 signalling mutants (its unsafe hoist
   is thousands of per-task races the remap does not touch).  One line
   per program: name, a tab, then the report JSON.  The committed file
   pins the analyzer's output byte for byte ([Golden]). *)
let golden_lines () =
  let line name program =
    name ^ "\t"
    ^ Tilelink_obs.Json.to_string
        (Analyzer.report_to_json (Analyzer.analyze program))
  in
  List.concat_map
    (fun (name, program) ->
      line name program
      :: List.map
           (fun (mutation, mutant) -> line (name ^ "/" ^ mutation) mutant)
           (Analyzer.mutation_corpus ~seed:17 program))
    (Suite.programs ()
    @ [
        ("out_of_layout", out_of_layout_program ());
        ("negative_notify", negative_notify_program ());
      ])
  @ List.concat_map
      (fun (name, program) ->
        line name program
        :: List.filter_map
             (fun (mutation, mutant) ->
               if mutation = "unsafe_hoist" then None
               else Some (line (name ^ "/" ^ mutation) mutant))
             (Analyzer.mutation_corpus ~seed:17 program))
      (remapped_programs ())

let test_reports_match_golden () =
  Golden.check ~what:"analyzer reports" "analyzer_golden.tsv"
    (golden_lines ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "analyzer"
    [
      ( "matching",
        [
          Alcotest.test_case "unmatched wait" `Quick test_unmatched_wait;
          Alcotest.test_case "unconsumed notify warns" `Quick
            test_unconsumed_notify_is_warning;
          Alcotest.test_case "epoch reuse" `Quick test_epoch_reuse;
          Alcotest.test_case "clean counter ok" `Quick test_clean_counter_ok;
        ] );
      ( "deadlock",
        [ Alcotest.test_case "cross-rank cycle" `Quick test_deadlock_cycle ] );
      ( "races",
        [
          Alcotest.test_case "read before acquire" `Quick
            test_read_before_acquire_race;
          Alcotest.test_case "unsafe hoist flagged" `Quick
            test_unsafe_hoist_always_flagged;
        ] );
      ( "layout",
        [
          Alcotest.test_case "large layouts report the same" `Quick
            test_large_layout_reports_unchanged;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "clean MLP passes" `Quick
            test_clean_workload_passes;
          Alcotest.test_case "mutation corpus flagged" `Quick
            test_mutation_corpus_all_flagged;
          Alcotest.test_case "mutation corpus seeded" `Quick
            test_mutation_corpus_seeded;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "cross-check" `Quick test_check_against_mapping;
          Alcotest.test_case "layout guard" `Quick
            test_check_against_mapping_layout_guard;
          qc prop_remap_cross_checks_clean;
          Alcotest.test_case "remap rejects bad survivors" `Quick
            test_remap_rejects_bad_survivors;
          Alcotest.test_case "missing survivor flagged" `Quick
            test_remap_missing_survivor_flagged;
          Alcotest.test_case "remap shares unchanged instructions" `Quick
            test_remap_shares_unchanged_instructions;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "runtime pre-flight rejects" `Quick
            test_runtime_preflight_rejects;
          Alcotest.test_case "runtime pre-flight accepts clean" `Quick
            test_runtime_preflight_accepts_clean;
          Alcotest.test_case "tune counts skipped_race" `Quick
            test_tune_counts_skipped_race;
          Alcotest.test_case "report json parses" `Quick
            test_report_json_parses;
        ] );
      ( "golden",
        [
          Alcotest.test_case "reports match the golden file" `Quick
            test_reports_match_golden;
        ] );
      ("properties", [ qc prop_pipeline_vs_analyzer ]);
    ]
