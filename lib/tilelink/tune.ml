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
   from a trusted hit is built once, after the search. *)

type 'a evaluation = {
  candidate : 'a;
  config : Design_space.config;
  time : float;
  exposed_comm_us : float option;
      (* exposed-communication blame from the causal profiler, when the
         evaluator ran with telemetry (program-valued searches do) *)
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
  | Failed_build
  | Failed_invalid
  | Failed_deadlock
  | Failed_race

(* What the cache holds for one candidate.  A [Loaded] entry came from
   a persistent file and may predate a builder change, so it is only
   replayed once the candidate has been built and analyzed again.  A
   [Written] entry was stored by this process, after its candidate
   built and passed [analyze], under a key that fingerprints workload,
   machine and candidate: it cannot be stale and is replayed as is. *)
type lookup =
  | Miss
  | Loaded of float * float option
  | Written of float * float option

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
   when an old cache file would happily replay its simulated time. *)
let attempt ?analyze ~config_of ~build ~evaluate ~record (item, lookup) =
  let scored ?candidate time exposed_comm_us =
    let s = { config = config_of item; time; exposed_comm_us } in
    record s candidate;
    s
  in
  match lookup with
  | Written (time, exposed_comm_us) -> From_cache (scored time exposed_comm_us)
  | Miss | Loaded _ -> (
    match build item with
    | exception Invalid_argument _ -> Failed_build
    | candidate -> (
      let analysis =
        match analyze with
        | None -> Ok ()
        | Some f -> (f candidate : (unit, string) result)
      in
      match (analysis, lookup) with
      | Error _, _ -> Failed_race
      | Ok (), Loaded (time, exposed_comm_us) ->
        From_cache (scored ~candidate time exposed_comm_us)
      | Ok (), _ -> (
        match evaluate candidate with
        | exception Invalid_argument _ -> Failed_invalid
        | exception Tilelink_sim.Engine.Deadlock _ -> Failed_deadlock
        | time, exposed_comm_us ->
          Evaluated (scored ~candidate time exposed_comm_us))))

(* Persistent cache entries are schema-versioned: the current shape is
   {"v": 2, "time": t, "exposed_comm_us": x?}.  Two legacy shapes
   predate the tag — bare numbers (pre-profiler) and untagged objects.
   An untagged object that carries the full measurement migrates
   losslessly; a bare number (no exposed-communication blame at all)
   or an untagged object missing [exposed_comm_us] would silently skew
   any scoring that weighs exposed communication — the planner's in
   particular — so those are *invalidated* on load: treated as a miss,
   re-evaluated, and rewritten under the current schema. *)
let cache_schema_version = 2

let cached_of_json json =
  let module Json = Tilelink_obs.Json in
  let time = Option.bind (Json.member "time" json) Json.to_float in
  let exposed =
    Option.bind (Json.member "exposed_comm_us" json) Json.to_float
  in
  match Option.bind (Json.member "v" json) Json.to_float with
  | Some v when int_of_float v = cache_schema_version ->
    Option.map (fun t -> (t, exposed)) time
  | Some _ ->
    (* A future (or corrupt) schema: never guess at its semantics. *)
    None
  | None -> (
    match (time, exposed) with
    | Some t, Some x -> Some (t, Some x)
    | _ -> None)

let cached_to_json e =
  let module Json = Tilelink_obs.Json in
  Json.Obj
    (("v", Json.Num (float_of_int cache_schema_version))
    :: ("time", Json.Num e.time)
    ::
    (match e.exposed_comm_us with
    | Some x -> [ ("exposed_comm_us", Json.Num x) ]
    | None -> []))

(* The internal search, generic over the searched item: [config_of]
   projects the design-space point recorded in each evaluation (the
   planner searches richer candidates that embed one), [evaluate]
   returns the simulated time plus the optional exposed-communication
   measurement, and [tie_break] orders equal times before the
   candidate index does.  The public [search] keeps its scalar
   evaluator and wraps.  A [Written] hit costs its task no build; if
   one wins, its candidate is built once, after the search. *)
let search_items ?pool ?cache ?cache_key ?analyze
    ?(tie_break = fun _ _ -> 0) ~config_of ~build ~evaluate items =
  let keyed =
    match (cache, cache_key) with
    | Some cache, Some key_of ->
      List.mapi
        (fun index item ->
          let key = key_of item in
          let lookup =
            match
              Option.bind (Tilelink_exec.Cache.find cache key) cached_of_json
            with
            | None -> Miss
            | Some (time, exposed) ->
              if Tilelink_exec.Cache.written cache key then
                Written (time, exposed)
              else Loaded (time, exposed)
          in
          (index, item, Some key, lookup))
        items
    | _ -> List.mapi (fun index item -> (index, item, None, Miss)) items
  in
  let leader = { lock = Mutex.create (); lead = None } in
  let attempts =
    Tilelink_exec.Pool.map pool
      (fun (index, item, _key, lookup) ->
        attempt ?analyze ~config_of ~build ~evaluate
          ~record:(offer ~tie_break leader index)
          (item, lookup))
      keyed
    |> List.map Tilelink_exec.Pool.get
  in
  (* Store fresh evaluations back under their keys (coordinator only,
     after the parallel section). *)
  (match cache with
  | None -> ()
  | Some cache ->
    List.iter2
      (fun (_, _, key, _) att ->
        match (key, att) with
        | Some key, Evaluated e ->
          Tilelink_exec.Cache.add cache key (cached_to_json e)
        | _ -> ())
      keyed attempts);
  let evaluated =
    List.filter_map
      (function Evaluated e | From_cache e -> Some e | _ -> None)
      attempts
  in
  let count p = List.length (List.filter p attempts) in
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
        | None -> build (List.nth items index)
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

(* The shared program evaluator: telemetry adds no simulated time, so
   the makespan is the one the plain evaluator would report; the spans
   additionally give each candidate its exposed-communication blame —
   the why behind its rank in the sweep.  Nothing else of the run is
   read, so only the span half records. *)
let evaluate_program ~make_cluster program =
  let cluster = make_cluster () in
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

(* One probe cluster pins down the machine identity behind a cache
   key; simulated clusters are single-shot, so it is discarded. *)
let machine_fingerprint ~make_cluster =
  let probe = make_cluster () in
  Printf.sprintf "%s|world=%d"
    (Tilelink_machine.Spec.fingerprint (Tilelink_machine.Cluster.spec probe))
    (Tilelink_machine.Cluster.world_size probe)

(* Convenience for program-valued candidates: simulate on a fresh
   cluster per candidate, built *inside* the evaluating task so every
   engine/channel/runtime structure stays confined to the domain that
   runs it — [make_cluster] is the enforced entry point. *)
let search_programs ?pool ?cache ~workload ~build ~make_cluster configs =
  let cache_key =
    match cache with
    | None -> None
    | Some _ ->
      let machine = machine_fingerprint ~make_cluster in
      Some
        (fun config ->
          Tilelink_exec.Cache.fingerprint
            (String.concat "|"
               [ workload; machine; Design_space.fingerprint config ]))
  in
  search_items ?pool ?cache ?cache_key ~analyze:Analyzer.check_message
    ~config_of:Fun.id ~build
    ~evaluate:(evaluate_program ~make_cluster) configs

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
  let cache_key =
    match cache with
    | None -> None
    | Some _ ->
      let machine = machine_fingerprint ~make_cluster in
      Some
        (fun candidate ->
          Tilelink_exec.Cache.fingerprint
            (String.concat "|" [ workload; machine; fingerprint candidate ]))
  in
  search_items ?pool ?cache ?cache_key
    ~analyze:(fun ((_, program) : _ * Program.t) ->
      Analyzer.check_message program)
    ~tie_break:less_exposed_comm ~config_of
    ~build:(fun candidate -> (candidate, build candidate))
    ~evaluate:(fun (_, program) -> evaluate_program ~make_cluster program)
    candidates
