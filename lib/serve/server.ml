module Chaos = Tilelink_core.Chaos
module Telemetry = Tilelink_obs.Telemetry
module Journal = Tilelink_obs.Journal
module Json = Tilelink_obs.Json

type chaos = { ch_seed : int; ch_crash_ranks : int }

type config = {
  machine : Tilelink_machine.Spec.t;
  topology : Tilelink_machine.Topology.t option;
  world_size : int;
  head_dim : int;
  slo : Slo.spec;
  queue_capacity : int;
  max_batch : int;
  kv_capacity : int;
  timeout_us : float;
  chaos : chaos option;
}

type report = {
  r_offered : int;
  r_accepted : int;
  r_completed : int;
  r_shed_queue_full : int;
  r_shed_deadline : int;
  r_shed_timeout : int;
  r_failed : int;
  r_in_flight : int;
  r_slo_met : int;
  r_goodput_rps : float;
  r_makespan_us : float;
  r_steps : int;
  r_faulted_steps : int;
  r_fallback_steps : int;
  r_retries : int;
  r_failovers : int;
  r_replayed_tiles : int;
  r_tier_changes : int;
  r_tier_us : (string * float) list;
  r_ttft : Slo.digest;
  r_tpot : Slo.digest;
  r_world_end : int;
  r_topology : string option;
  r_nodes : int;  (** islands the serve started on; 1 when flat *)
}

(* Mutable serve-loop state: the counters the report is built from. *)
type state = {
  cfg : config;
  telemetry : Telemetry.t option;
  batcher : Batcher.t;
  queue : Admission.t;
  degrade : Degrade.t;
  mutable pending : Trace_gen.request list;  (** arrivals not yet ingested *)
  mutable deferred : Trace_gen.request option;
      (** popped from the queue but awaiting KV headroom — preserves
          FIFO order without re-enqueueing *)
  mutable now : float;
  mutable crash_at : float option;  (** armed crash instant *)
  mutable peak_pressure : float;
      (** max queue occupancy since the last step — fill drains the
          queue into the batch, so sampling pressure only after fill
          would blind the degradation controller to bursts that fit in
          one refill *)
  mutable shed_queue_full : int;
  mutable shed_deadline : int;
  mutable shed_timeout : int;
  mutable completed : int;
  mutable slo_met : int;
  mutable ttft : float list;  (** newest first *)
  mutable tpot : float list;
  mutable steps : int;
  mutable faulted_steps : int;
  mutable fallback_steps : int;
  mutable retries : int;
  mutable failovers : int;
  mutable replayed : int;
  mutable tier_changes : int;
}

let journal st ev =
  match st.telemetry with
  | Some tel when Journal.enabled (Telemetry.journal tel) ->
    Journal.record (Telemetry.journal tel) ~t:st.now ev
  | _ -> ()

let shed st (r : Trace_gen.request) reason =
  (match reason with
  | Admission.Queue_full ->
    (* An overflowing queue is saturated by definition, even if the
       occupancy sample between drains never shows it. *)
    st.peak_pressure <- 1.0;
    st.shed_queue_full <- st.shed_queue_full + 1
  | Admission.Deadline -> st.shed_deadline <- st.shed_deadline + 1
  | Admission.Timeout -> st.shed_timeout <- st.shed_timeout + 1);
  journal st
    (Journal.Request_shed
       { id = r.Trace_gen.rq_id; reason = Admission.shed_reason_to_string reason })

(* Arrivals due at the current clock.  A prompt that cannot fit in the
   KV budget even alone is shed immediately — it could never leave the
   queue and would wedge the drain. *)
let ingest st =
  let rec go = function
    | r :: rest when r.Trace_gen.rq_arrival_us <= st.now ->
      (if r.Trace_gen.rq_prompt > st.cfg.kv_capacity then
         shed st r Admission.Queue_full
       else
         match Admission.offer st.queue r with
         | Ok () -> ()
         | Error reason -> shed st r reason);
      go rest
    | rest -> st.pending <- rest
  in
  go st.pending;
  st.peak_pressure <- Float.max st.peak_pressure (Admission.pressure st.queue)

let evict_timeouts st =
  List.iter
    (fun (e : Batcher.entry) ->
      if st.now -. e.Batcher.e_req.Trace_gen.rq_arrival_us >= st.cfg.timeout_us
      then begin
        Batcher.evict st.batcher e.Batcher.e_req;
        shed st e.Batcher.e_req Admission.Timeout
      end)
    (Batcher.running st.batcher)

(* Fill the batch up to the tier cap: deferred head first, then the
   queue, deadline-shedding stale heads as they surface. *)
let fill st =
  let tier = Degrade.tier st.degrade in
  let cap = Degrade.max_batch st.degrade ~full:st.cfg.max_batch in
  let est = Batcher.est_step_us st.batcher ~tier ~extra:1 in
  let rec go () =
    if Batcher.batch_size st.batcher >= cap then ()
    else
      match st.deferred with
      | Some r ->
        if Batcher.fits st.batcher r then begin
          st.deferred <- None;
          Batcher.admit st.batcher r;
          go ()
        end
      | None -> begin
        match
          Admission.poll st.queue ~now_us:st.now
            ~ttft_deadline_us:st.cfg.slo.Slo.ttft_us ~est_first_token_us:est
        with
        | None -> ()
        | Some (Error (r, reason)) ->
          shed st r reason;
          go ()
        | Some (Ok r) ->
          if Batcher.fits st.batcher r then begin
            Batcher.admit st.batcher r;
            go ()
          end
          else st.deferred <- Some r
      end
  in
  go ()

let record_completion st (e : Batcher.entry) =
  let r = e.Batcher.e_req in
  let first =
    match e.Batcher.e_first_us with Some t -> t | None -> st.now
  in
  let ttft = first -. r.Trace_gen.rq_arrival_us in
  let tpot =
    if r.Trace_gen.rq_decode > 1 then
      (st.now -. first) /. float_of_int (r.Trace_gen.rq_decode - 1)
    else 0.
  in
  st.completed <- st.completed + 1;
  st.ttft <- ttft :: st.ttft;
  st.tpot <- tpot :: st.tpot;
  if Slo.meets st.cfg.slo { Slo.s_ttft_us = ttft; s_tpot_us = tpot } then
    st.slo_met <- st.slo_met + 1

let step st =
  let crash =
    match (st.crash_at, st.cfg.chaos) with
    | Some at, Some ch when st.now >= at ->
      st.crash_at <- None;
      Some { Batcher.ck_seed = ch.ch_seed; ck_ranks = ch.ch_crash_ranks }
    | _ -> None
  in
  let tier = Degrade.tier st.degrade in
  let o = Batcher.step ?crash st.batcher ~tier in
  st.now <- st.now +. o.Batcher.o_cost_us;
  st.steps <- st.steps + 1;
  if o.Batcher.o_faulted then st.faulted_steps <- st.faulted_steps + 1;
  if o.Batcher.o_fell_back then st.fallback_steps <- st.fallback_steps + 1;
  st.retries <- st.retries + o.Batcher.o_retries;
  st.failovers <- st.failovers + o.Batcher.o_failed_over;
  st.replayed <- st.replayed + o.Batcher.o_replayed_tiles;
  (* Everyone in this step has produced a token by its end. *)
  let stamp (e : Batcher.entry) =
    if e.Batcher.e_first_us = None then e.Batcher.e_first_us <- Some st.now
  in
  List.iter stamp (Batcher.running st.batcher);
  List.iter stamp o.Batcher.o_completed;
  List.iter (record_completion st) o.Batcher.o_completed;
  let pressure = st.peak_pressure in
  st.peak_pressure <- Admission.pressure st.queue;
  match
    Degrade.observe st.degrade ~now_us:st.now ~pressure
      ~faulted:o.Batcher.o_faulted
  with
  | Some tier' ->
    st.tier_changes <- st.tier_changes + 1;
    journal st
      (Journal.Tier_change
         { tier = Degrade.tier_to_string tier'; pressure })
  | None -> ()

let drained st =
  st.pending = [] && st.deferred = None
  && Admission.length st.queue = 0
  && Batcher.batch_size st.batcher = 0

let rec loop st =
  ingest st;
  evict_timeouts st;
  fill st;
  if Batcher.batch_size st.batcher > 0 then begin
    step st;
    loop st
  end
  else
    match st.pending with
    | r :: _ ->
      (* Idle: jump the virtual clock to the next arrival. *)
      st.now <- Float.max st.now r.Trace_gen.rq_arrival_us;
      loop st
    | [] -> if not (drained st) then loop st

let validate cfg trace =
  if trace = [] then invalid_arg "Server.run: empty trace";
  if cfg.queue_capacity <= 0 then
    invalid_arg "Server.run: queue_capacity must be > 0";
  if cfg.max_batch <= 0 then invalid_arg "Server.run: max_batch must be > 0";
  if cfg.kv_capacity <= 0 then invalid_arg "Server.run: kv_capacity must be > 0";
  if cfg.timeout_us <= 0. then invalid_arg "Server.run: timeout_us must be > 0";
  if cfg.slo.Slo.ttft_us <= 0. || cfg.slo.Slo.tpot_us <= 0. then
    invalid_arg "Server.run: SLO bounds must be > 0";
  match cfg.chaos with
  | Some ch when ch.ch_crash_ranks < 0 || ch.ch_crash_ranks >= cfg.world_size ->
    invalid_arg "Server.run: crash_ranks must leave at least one survivor"
  | _ -> ()

(* The crash fires at a seed-chosen point strictly inside the arrival
   span — "mid-trace" by construction, deterministic per seed. *)
let arm_crash cfg trace =
  match cfg.chaos with
  | Some ch when ch.ch_crash_ranks > 0 ->
    let first = (List.hd trace).Trace_gen.rq_arrival_us in
    let last =
      List.fold_left
        (fun acc (r : Trace_gen.request) -> Float.max acc r.rq_arrival_us)
        first trace
    in
    let prng =
      Chaos.Prng.create ~seed:(Chaos.derive_seed ~seed:ch.ch_seed ~index:1783)
    in
    let frac = 0.25 +. (0.5 *. Chaos.Prng.float prng) in
    Some (first +. (frac *. (last -. first)))
  | _ -> None

let run ?telemetry cfg trace =
  validate cfg trace;
  let trace =
    List.stable_sort
      (fun (a : Trace_gen.request) b -> compare a.rq_arrival_us b.rq_arrival_us)
      trace
  in
  let st =
    {
      cfg;
      telemetry;
      batcher =
        Batcher.create ?topology:cfg.topology ~machine:cfg.machine
          ~world_size:cfg.world_size ~head_dim:cfg.head_dim
          ~kv_capacity:cfg.kv_capacity ();
      queue = Admission.create ~capacity:cfg.queue_capacity;
      degrade = Degrade.create ();
      pending = trace;
      deferred = None;
      now = 0.;
      crash_at = arm_crash cfg trace;
      peak_pressure = 0.;
      shed_queue_full = 0;
      shed_deadline = 0;
      shed_timeout = 0;
      completed = 0;
      slo_met = 0;
      ttft = [];
      tpot = [];
      steps = 0;
      faulted_steps = 0;
      fallback_steps = 0;
      retries = 0;
      failovers = 0;
      replayed = 0;
      tier_changes = 0;
    }
  in
  loop st;
  Degrade.finish st.degrade ~now_us:st.now;
  let offered = List.length trace in
  let in_flight =
    Admission.length st.queue
    + Batcher.batch_size st.batcher
    + (match st.deferred with Some _ -> 1 | None -> 0)
  in
  let shed = st.shed_queue_full + st.shed_deadline + st.shed_timeout in
  {
    r_offered = offered;
    r_accepted = offered - st.shed_queue_full;
    r_completed = st.completed;
    r_shed_queue_full = st.shed_queue_full;
    r_shed_deadline = st.shed_deadline;
    r_shed_timeout = st.shed_timeout;
    r_failed = offered - st.completed - shed - in_flight;
    r_in_flight = in_flight;
    r_slo_met = st.slo_met;
    r_goodput_rps =
      (if st.now > 0. then float_of_int st.slo_met /. (st.now /. 1e6) else 0.);
    r_makespan_us = st.now;
    r_steps = st.steps;
    r_faulted_steps = st.faulted_steps;
    r_fallback_steps = st.fallback_steps;
    r_retries = st.retries;
    r_failovers = st.failovers;
    r_replayed_tiles = st.replayed;
    r_tier_changes = st.tier_changes;
    r_tier_us =
      List.map
        (fun t -> (Degrade.tier_to_string t, Degrade.time_in st.degrade t))
        [ Degrade.Overlapped; Degrade.Shrunk; Degrade.Nonoverlap ];
    r_ttft = Slo.digest (List.rev st.ttft);
    r_tpot = Slo.digest (List.rev st.tpot);
    r_world_end = Batcher.world st.batcher;
    r_topology = Option.map Tilelink_machine.Topology.name cfg.topology;
    r_nodes =
      (match cfg.topology with
      | None -> 1
      | Some topo ->
        Tilelink_machine.Topology.islands
          (Tilelink_machine.Topology.layout topo ~world_size:cfg.world_size));
  }

let conservation_ok r =
  r.r_in_flight = 0
  && r.r_failed >= 0
  && r.r_offered
     = r.r_completed + r.r_shed_queue_full + r.r_shed_deadline
       + r.r_shed_timeout + r.r_failed + r.r_in_flight

let report_to_json r =
  let num_i n = Json.Num (float_of_int n) in
  Json.Obj
    ([
      ("offered", num_i r.r_offered);
      ("accepted", num_i r.r_accepted);
      ("completed", num_i r.r_completed);
      ( "shed",
        Json.Obj
          [
            ("queue_full", num_i r.r_shed_queue_full);
            ("deadline", num_i r.r_shed_deadline);
            ("timeout", num_i r.r_shed_timeout);
          ] );
      ("failed", num_i r.r_failed);
      ("in_flight", num_i r.r_in_flight);
      ("slo_met", num_i r.r_slo_met);
      ("goodput_rps", Json.Num r.r_goodput_rps);
      ("makespan_us", Json.Num r.r_makespan_us);
      ("steps", num_i r.r_steps);
      ("faulted_steps", num_i r.r_faulted_steps);
      ("fallback_steps", num_i r.r_fallback_steps);
      ("retries", num_i r.r_retries);
      ("failovers", num_i r.r_failovers);
      ("replayed_tiles", num_i r.r_replayed_tiles);
      ("tier_changes", num_i r.r_tier_changes);
      ( "tier_us",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.r_tier_us) );
      ("ttft", Slo.digest_to_json r.r_ttft);
      ("tpot", Slo.digest_to_json r.r_tpot);
      ("world_end", num_i r.r_world_end);
    ]
    @ (* Topology fields only exist on topology serves — flat reports
         stay byte-identical. *)
    (match r.r_topology with
    | None -> []
    | Some name -> [ ("topology", Json.Str name); ("nodes", num_i r.r_nodes) ])
    @ [ ("conserved", Json.Bool (conservation_ok r)) ])

let report_to_string r = Json.to_string ~indent:true (report_to_json r)
