(* Design-space search.

   TileLink's performance numbers come from picking the best point of
   the decoupled design space under the simulator — exactly the role
   autotuning plays for the real compiler.  Candidates that fail to
   build (invalid tile/extent combinations) or deadlock are skipped,
   with a per-reason count.

   Every candidate is an independent, deterministic simulator run, so
   the search fans out over a [Tilelink_exec.Pool] when given one and
   consults a [Tilelink_exec.Cache] keyed by (workload, machine spec,
   config) fingerprints.  Both paths — and any pool width — return the
   identical outcome: scores come back in candidate order, and the best
   is the least element of a total order (time, then the caller's
   tie-break, then candidate index), so the order in which domains
   finish cannot change it.  Cache hits replay the stored time
   bit-for-bit within a process.

   A hit on an entry this process wrote is trusted outright: the
   candidate is neither built nor analyzed, because the entry was
   stored only after the same build and analysis passed.  Entries
   loaded from a cache file still build and analyze before they
   replay.  A built candidate (a whole synthesized program, for the
   program searches) is dropped as soon as it has been analyzed and
   scored; only the running best keeps one alive, so a search holds at
   most one candidate per domain plus the winner.  A winner that came
   from a trusted hit is built once, after the search.

   The planner's search also prunes with an admissible makespan bound
   ({!Bound.makespan}), in two phases so that what it prunes does not
   depend on the pool width.  Phase 1 builds, analyzes and bounds every
   miss, then drops the program.  Phase 2 takes the incumbent [u]: the
   best score hit, or the simulated time of the clean miss with the
   least bound (earliest index on a tie) when that is smaller.  It
   rebuilds and simulates every miss whose bound is at most [u]; the
   rest are pruned.  A pruned candidate's makespan is at least its
   bound, which is strictly above [u], which is at least the winner's
   makespan: it could neither win nor tie, so the winner and its
   tie-breaks are those of an exhaustive search. *)

type 'a evaluation = {
  candidate : 'a;
  config : Design_space.config;
  time : float;
  exposed_comm_us : float option;
      (* exposed-communication blame from the causal profiler, when the
         evaluator ran with telemetry (planner searches and
         [search_programs ~blame:true] do) *)
}

(* Defined after [evaluation] so an unannotated [e.config] or [e.time]
   resolves to the score, the type of [outcome.evaluated]. *)
type score = {
  config : Design_space.config;
  time : float;
  exposed_comm_us : float option;
}

type 'a outcome = {
  best : 'a evaluation;
  evaluated : score list;
  pruned : int;
  skipped : int;
  skipped_build : int;
  skipped_invalid : int;
  skipped_deadlock : int;
  skipped_race : int;
  cache_hits : int;
  cache_misses : int;
}

(* One candidate's fate, computed inside a pool task.  The four
   expected failure modes are folded into the variant here so they
   never cross a domain boundary as raw exceptions; anything else is a
   bug and propagates to the caller via [Pool.get]. *)
type attempt =
  | Evaluated of score
  | From_cache of score
  | Clean of float
      (* phase 1 of a pruning search: built and analyzer-clean (or a
         trusted bound entry), with this makespan bound *)
  | Pruned of float
  | Failed_build
  | Failed_invalid
  | Failed_deadlock
  | Failed_race

(* What the cache holds for one candidate.  A [Loaded] entry came from
   a persistent file and may predate a builder change, so it is only
   replayed once the candidate has been built and analyzed again.  A
   [Written] entry was stored by this process, after its candidate
   built and passed [analyze], under a key that fingerprints workload,
   machine and candidate: it cannot be stale and is replayed as is.
   A [Bounded] entry is a pruned candidate's bound, written by this
   process after the candidate built and passed [analyze]; a bound
   entry loaded from a file is a [Miss]. *)
type lookup =
  | Miss
  | Loaded of float * float option
  | Written of float * float option
  | Bounded of float

(* The running best, shared by every task of one search: an index, its
   score, and the built candidate unless the score came from a
   [Written] hit, which never builds.  [offer] is the only place a
   built candidate can outlive its task: a candidate that does not beat
   the leader is garbage as soon as [offer] returns. *)
type 'a leader = {
  lock : Mutex.t;
  mutable lead : (int * score * 'a option) option;
}

let offer ~tie_break leader index (s : score) candidate =
  let beats (i, (a : score)) (j, (b : score)) =
    if a.time <> b.time then a.time < b.time
    else
      match tie_break a b with
      | 0 -> i < j
      | c -> c < 0
  in
  Mutex.protect leader.lock (fun () ->
      match leader.lead with
      | Some (j, lead, _) when not (beats (index, s) (j, lead)) -> ()
      | _ -> leader.lead <- Some (index, s, candidate))

(* A [Written] hit is scored without building.  Otherwise static
   analysis runs right after build, before a [Loaded] entry is
   replayed, so a candidate with a broken protocol is rejected even
   when an old cache file would happily replay its simulated time.
   With [bound], a clean miss is bounded instead of simulated, and its
   program dropped; phase 2 of the search decides whether to simulate
   it. *)
let attempt ?analyze ?bound ~config_of ~build ~evaluate ~record (item, lookup)
    =
  let scored ?candidate time exposed_comm_us =
    let s = { config = config_of item; time; exposed_comm_us } in
    record s candidate;
    s
  in
  match (lookup, bound) with
  | Written (time, exposed_comm_us), _ ->
    From_cache (scored time exposed_comm_us)
  | Bounded b, Some _ -> Clean b
  | (Miss | Loaded _ | Bounded _), _ -> (
    match build item with
    | exception Invalid_argument _ -> Failed_build
    | candidate -> (
      let analysis =
        match analyze with
        | None -> Ok ()
        | Some f -> (f candidate : (unit, string) result)
      in
      match (analysis, lookup, bound) with
      | Error _, _, _ -> Failed_race
      | Ok (), Loaded (time, exposed_comm_us), _ ->
        From_cache (scored ~candidate time exposed_comm_us)
      | Ok (), _, Some bound -> Clean (bound candidate)
      | Ok (), _, None -> (
        match evaluate candidate with
        | exception Invalid_argument _ -> Failed_invalid
        | exception Tilelink_sim.Engine.Deadlock _ -> Failed_deadlock
        | time, exposed_comm_us ->
          Evaluated (scored ~candidate time exposed_comm_us))))

(* Persistent cache entries are schema-versioned.  The current shape
   stores every float exactly, as an OCaml hex literal (["%h"]), so a
   reloaded entry replays the very time it recorded: a score is
   {"v": 3, "time": "0x...", "exposed_comm_us": "0x..."?} and a pruned
   candidate's bound is {"v": 3, "bound": "0x..."}.  Every older shape
   (bare numbers, untagged objects, schema 2) stored decimal numbers
   with six significant digits, so replaying one could reorder two
   close candidates; they are all invalidated on load: treated as a
   miss, re-evaluated, and rewritten under the current schema. *)
let cache_schema_version = 3

type cached = Score of float * float option | Bound_entry of float

let cached_of_json json =
  let module Json = Tilelink_obs.Json in
  let exact field =
    Option.bind
      (Option.bind (Json.member field json) Json.to_str)
      float_of_string_opt
  in
  match Option.bind (Json.member "v" json) Json.to_float with
  | Some v when v = float_of_int cache_schema_version -> (
    match (exact "time", exact "bound") with
    | Some t, _ -> Some (Score (t, exact "exposed_comm_us"))
    | None, Some b -> Some (Bound_entry b)
    | None, None -> None)
  | _ -> None

let cached_to_json entry =
  let module Json = Tilelink_obs.Json in
  let exact x = Json.Str (Printf.sprintf "%h" x) in
  Json.Obj
    (("v", Json.Num (float_of_int cache_schema_version))
    ::
    (match entry with
    | Bound_entry b -> [ ("bound", exact b) ]
    | Score (time, exposed) ->
      ("time", exact time)
      ::
      (match exposed with
      | Some x -> [ ("exposed_comm_us", exact x) ]
      | None -> [])))

(* The internal search, generic over the searched item: [config_of]
   projects the design-space point recorded in each evaluation (the
   planner searches richer candidates that embed one), [evaluate]
   returns the simulated time plus the optional exposed-communication
   measurement, and [tie_break] orders equal times before the
   candidate index does.  The public [search] keeps its scalar
   evaluator and wraps.  A [Written] hit costs its task no build; if
   one wins, its candidate is built once, after the search.  With
   [bound], misses go through the two pruning phases. *)
let search_items ?pool ?cache ?cache_key ?analyze ?bound
    ?(tie_break = fun _ _ -> 0) ~config_of ~build ~evaluate items =
  let items = Array.of_list items in
  let keys =
    match (cache, cache_key) with
    | Some _, Some key_of -> Array.map (fun item -> Some (key_of item)) items
    | _ -> Array.map (fun _ -> None) items
  in
  let lookup index =
    match (cache, keys.(index)) with
    | Some cache, Some key -> (
      let written () = Tilelink_exec.Cache.written cache key in
      match
        Option.bind (Tilelink_exec.Cache.find cache key) cached_of_json
      with
      | None -> Miss
      | Some (Score (time, exposed)) ->
        if written () then Written (time, exposed) else Loaded (time, exposed)
      | Some (Bound_entry b) -> if written () then Bounded b else Miss)
    | _ -> Miss
  in
  let leader = { lock = Mutex.create (); lead = None } in
  let run ?analyze ?bound index lookup =
    attempt ?analyze ?bound ~config_of ~build ~evaluate
      ~record:(offer ~tie_break leader index)
      (items.(index), lookup)
  in
  let attempts =
    Array.of_list
      (Tilelink_exec.Pool.map pool
         (fun (index, lookup) -> run ?analyze ?bound index lookup)
         (List.init (Array.length items) (fun index -> (index, lookup index)))
      |> List.map Tilelink_exec.Pool.get)
  in
  (* Phase 2: simulate the clean misses that may still win.  Phase 1
     ran [analyze] on each of them, so the rebuild skips it. *)
  if bound <> None then begin
    let clean =
      List.filter_map
        (fun index ->
          match attempts.(index) with
          | Clean b -> Some (b, index)
          | _ -> None)
        (List.init (Array.length items) Fun.id)
      |> List.sort compare
    in
    let lower t = function None -> Some t | Some u -> Some (Float.min u t) in
    let above u b = match u with Some u -> b > u | None -> false in
    let best_hit =
      Array.fold_left
        (fun u -> function From_cache s -> lower s.time u | _ -> u)
        None attempts
    in
    (* The incumbent: the best score hit, lowered by the first clean
       miss in bound order that simulates, unless its bound is already
       above the hits' best (it is then pruned like the rest). *)
    let rec incumbent u = function
      | (b, _) :: _ when above u b -> u
      | [] -> u
      | (_, index) :: rest -> (
        attempts.(index) <- run index Miss;
        match attempts.(index) with
        | Evaluated s -> lower s.time u
        | _ -> incumbent u rest)
    in
    let u = incumbent best_hit clean in
    let survivors =
      List.filter_map
        (fun (b, index) ->
          match attempts.(index) with
          | Clean _ when above u b ->
            attempts.(index) <- Pruned b;
            None
          | Clean _ -> Some index
          | _ -> None)
        clean
    in
    List.iter2
      (fun index att -> attempts.(index) <- Tilelink_exec.Pool.get att)
      survivors
      (Tilelink_exec.Pool.map pool (fun index -> run index Miss) survivors)
  end;
  (* Store fresh evaluations and bounds back under their keys
     (coordinator only, after the parallel sections). *)
  (match cache with
  | None -> ()
  | Some cache ->
    Array.iteri
      (fun index att ->
        match (keys.(index), att) with
        | Some key, Evaluated e ->
          Tilelink_exec.Cache.add cache key
            (cached_to_json (Score (e.time, e.exposed_comm_us)))
        | Some key, Pruned b ->
          Tilelink_exec.Cache.add cache key (cached_to_json (Bound_entry b))
        | _ -> ())
      attempts);
  let attempts = Array.to_list attempts in
  let evaluated =
    List.filter_map
      (function Evaluated e | From_cache e -> Some e | _ -> None)
      attempts
  in
  let count p = List.length (List.filter p attempts) in
  let pruned = count (function Pruned _ -> true | _ -> false) in
  let skipped_build = count (function Failed_build -> true | _ -> false) in
  let skipped_invalid =
    count (function Failed_invalid -> true | _ -> false)
  in
  let skipped_deadlock =
    count (function Failed_deadlock -> true | _ -> false)
  in
  let skipped_race = count (function Failed_race -> true | _ -> false) in
  let cache_hits =
    count (function From_cache _ -> true | _ -> false)
  in
  let cache_misses =
    match cache with
    | None -> 0
    | Some _ -> List.length attempts - cache_hits
  in
  Option.map
    (fun (index, (s : score), built) ->
      let candidate =
        match built with
        | Some candidate -> candidate
        | None -> build items.(index)
      in
      {
        best =
          {
            candidate;
            config = s.config;
            time = s.time;
            exposed_comm_us = s.exposed_comm_us;
          };
        evaluated;
        pruned;
        skipped =
          skipped_build + skipped_invalid + skipped_deadlock + skipped_race;
        skipped_build;
        skipped_invalid;
        skipped_deadlock;
        skipped_race;
        cache_hits;
        cache_misses;
      })
    leader.lead

let search ?pool ?cache ?cache_key ?analyze ~build ~evaluate configs =
  search_items ?pool ?cache ?cache_key ?analyze ~config_of:Fun.id ~build
    ~evaluate:(fun candidate -> (evaluate candidate, None))
    configs

(* The shared program evaluator.  A search that reads no blame scores
   a candidate on the bare simulator: one run without telemetry, whose
   makespan is the score.  With [blame], only the span half of
   telemetry records as well; it adds no simulated time, so the
   makespan is the same, and the spans give the candidate its
   exposed-communication blame, the why behind its rank in the sweep.
   Span records nearly quadruple what the simulator promotes to the
   major heap per event, so they are paid only where something reads
   the blame. *)
let evaluate_program ~blame ~make_cluster program =
  let cluster = make_cluster () in
  if not blame then ((Runtime.run cluster program).Runtime.makespan, None)
  else
    let telemetry = Tilelink_obs.Telemetry.spans_only () in
    let r = Runtime.run ~telemetry cluster program in
    let attribution =
      Tilelink_obs.Attribution.of_spans ~makespan:r.Runtime.makespan
        (Tilelink_obs.Span.spans (Tilelink_obs.Telemetry.spans telemetry))
    in
    ( r.Runtime.makespan,
      Some
        attribution.Tilelink_obs.Attribution.buckets
          .Tilelink_obs.Attribution.exposed_comm )

(* A probe cluster pins down the machine identity behind a cache key;
   simulated clusters are single-shot, so a probe never runs. *)
let machine_fingerprint probe =
  Printf.sprintf "%s|world=%d"
    (Tilelink_machine.Spec.fingerprint (Tilelink_machine.Cluster.spec probe))
    (Tilelink_machine.Cluster.world_size probe)

(* Convenience for program-valued candidates: simulate on a fresh
   cluster per candidate, built *inside* the evaluating task so every
   engine/channel/runtime structure stays confined to the domain that
   runs it — [make_cluster] is the enforced entry point.  The
   tie-break ignores blame, so [blame] changes what a score carries,
   never which candidate wins, and the cache key leaves it out. *)
let search_programs ?pool ?cache ?(blame = false) ~workload ~build
    ~make_cluster configs =
  let cache_key =
    match cache with
    | None -> None
    | Some _ ->
      let machine = machine_fingerprint (make_cluster ()) in
      Some
        (fun config ->
          Tilelink_exec.Cache.fingerprint
            (String.concat "|"
               [ workload; machine; Design_space.fingerprint config ]))
  in
  search_items ?pool ?cache ?cache_key ~analyze:Analyzer.check_message
    ~config_of:Fun.id ~build
    ~evaluate:(evaluate_program ~blame ~make_cluster) configs

(* The planner breaks makespan ties toward less exposed communication
   (missing blame sorts last), before the earliest candidate wins a
   full tie, so its winner is deterministic across pool widths. *)
let less_exposed_comm (a : score) (b : score) =
  let blame (e : score) = Option.value ~default:infinity e.exposed_comm_us in
  Float.compare (blame a) (blame b)

(* Planner entry point: candidates are arbitrary schedule descriptions
   that embed a design-space point ([config_of]) and synthesize to a
   program ([build]); [fingerprint] must cover every candidate axis
   beyond the embedded config (transfer mode, chunking, ...) so the
   cache never conflates two schedules.  Results pair the winning
   candidate with its synthesized program, because the caller needs
   both: the candidate to describe the schedule, the program to emit
   or execute it. *)
let search_planned ?pool ?cache ~workload ~fingerprint ~config_of ~build
    ~make_cluster candidates =
  (* The bound reads only the cluster's static configuration, so one
     probe serves every domain. *)
  let probe = make_cluster () in
  let cache_key =
    match cache with
    | None -> None
    | Some _ ->
      let machine = machine_fingerprint probe in
      Some
        (fun candidate ->
          Tilelink_exec.Cache.fingerprint
            (String.concat "|" [ workload; machine; fingerprint candidate ]))
  in
  search_items ?pool ?cache ?cache_key
    ~analyze:(fun ((_, program) : _ * Program.t) ->
      Analyzer.check_message program)
    ~bound:(fun (_, program) -> Bound.makespan probe program)
    ~tie_break:less_exposed_comm ~config_of
    ~build:(fun candidate -> (candidate, build candidate))
    ~evaluate:(fun (_, program) ->
      evaluate_program ~blame:true ~make_cluster program)
    candidates
