(* Enriched Chrome/Perfetto trace export.

   [Trace.to_chrome_json] emits plain duration slices.  This exporter
   combines those slices with the journal to add what overlap debugging
   actually needs:

   - flow events ("s"/"f" pairs) drawing an arrow from each
     producer-side notify to the consumer wait it released — the wait
     with threshold T on a channel is paired with the notify whose
     cumulative value first reached T;
   - counter tracks: outstanding signals per rank (produced but not yet
     consumed), blocked waiters per rank, and per-rank egress bandwidth
     reconstructed from tile push/pull events;
   - instant events for deadlock context.

   Load the output at https://ui.perfetto.dev or chrome://tracing. *)

module Trace = Tilelink_sim.Trace

let span_event (s : Trace.span) =
  Json.Obj
    [
      ("name", Json.Str s.Trace.label);
      ("ph", Json.Str "X");
      ("ts", Json.Num s.Trace.t0);
      ("dur", Json.Num (s.Trace.t1 -. s.Trace.t0));
      ("pid", Json.Num (float_of_int s.Trace.rank));
      ("tid", Json.Str (Trace.lane_to_string s.Trace.lane));
    ]

let counter_event ~name ~rank ~t ~field value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "C");
      ("ts", Json.Num t);
      ("pid", Json.Num (float_of_int rank));
      ("args", Json.Obj [ (field, Json.Num value) ]);
    ]

let flow_event ~phase ~id ~rank ~tid ~t =
  let base =
    [
      ("name", Json.Str "signal");
      ("cat", Json.Str "signal");
      ("ph", Json.Str phase);
      ("id", Json.Num (float_of_int id));
      ("ts", Json.Num t);
      ("pid", Json.Num (float_of_int rank));
      ("tid", Json.Str tid);
    ]
  in
  (* "f" needs a binding point so the arrow terminates at the enclosing
     slice's end rather than being dropped. *)
  Json.Obj (if phase = "f" then base @ [ ("bp", Json.Str "e") ] else base)

(* Pair each wait with the notify that released it: per channel key,
   notifies are chronological and the counter is monotonic, so the
   releasing notify is the first whose post-add value reaches the
   wait's threshold. *)
let flow_events journal =
  let notifies : (string, (float * int * int) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (e : Journal.entry) ->
      match e.Journal.event with
      | Journal.Signal_set { key; rank; value; _ } ->
        let cell =
          match Hashtbl.find_opt notifies key with
          | Some c -> c
          | None ->
            let c = ref [] in
            Hashtbl.add notifies key c;
            c
        in
        cell := (e.Journal.t, rank, value) :: !cell
      | _ -> ())
    (Journal.entries journal);
  Hashtbl.iter (fun _ cell -> cell := List.rev !cell) notifies;
  let next_id = ref 0 in
  List.concat_map
    (fun (e : Journal.entry) ->
      match e.Journal.event with
      | Journal.Wait_end { key; rank; threshold; _ } -> (
        let releasing =
          match Hashtbl.find_opt notifies key with
          | None -> None
          | Some cell ->
            List.find_opt (fun (_, _, value) -> value >= threshold) !cell
        in
        match releasing with
        | None -> []
        | Some (nt, nrank, _) ->
          incr next_id;
          let id = !next_id in
          [
            flow_event ~phase:"s" ~id ~rank:nrank ~tid:"comm-sm" ~t:nt;
            flow_event ~phase:"f" ~id ~rank ~tid:"wait" ~t:e.Journal.t;
          ])
      | _ -> [])
    (Journal.entries journal)

(* Outstanding signals (set but not yet consumed) and blocked waiters,
   as per-rank counter tracks sampled at every change. *)
let signal_counter_events journal =
  let key_state : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  (* value, consumed threshold high-water mark *)
  let key_owner : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let outstanding : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let waiters : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let get table rank = Option.value ~default:0 (Hashtbl.find_opt table rank) in
  let key_outstanding key =
    let value, consumed =
      Option.value ~default:(0, 0) (Hashtbl.find_opt key_state key)
    in
    max 0 (value - consumed)
  in
  List.concat_map
    (fun (e : Journal.entry) ->
      let t = e.Journal.t in
      match e.Journal.event with
      | Journal.Signal_set { key; rank; value; _ } ->
        let owner =
          match Hashtbl.find_opt key_owner key with
          | Some o -> o
          | None ->
            Hashtbl.replace key_owner key rank;
            rank
        in
        let before = key_outstanding key in
        let _, consumed =
          Option.value ~default:(0, 0) (Hashtbl.find_opt key_state key)
        in
        Hashtbl.replace key_state key (value, consumed);
        let total = get outstanding owner + (key_outstanding key - before) in
        Hashtbl.replace outstanding owner total;
        [
          counter_event ~name:"outstanding signals" ~rank:owner ~t
            ~field:"signals" (float_of_int total);
        ]
      | Journal.Wait_end { key; rank; threshold; _ } ->
        let owner =
          Option.value ~default:rank (Hashtbl.find_opt key_owner key)
        in
        let before = key_outstanding key in
        let value, consumed =
          Option.value ~default:(0, 0) (Hashtbl.find_opt key_state key)
        in
        Hashtbl.replace key_state key (value, max consumed threshold);
        let total = get outstanding owner + (key_outstanding key - before) in
        Hashtbl.replace outstanding owner total;
        let w = get waiters rank - 1 in
        Hashtbl.replace waiters rank w;
        [
          counter_event ~name:"outstanding signals" ~rank:owner ~t
            ~field:"signals" (float_of_int total);
          counter_event ~name:"blocked waiters" ~rank ~t ~field:"waiters"
            (float_of_int w);
        ]
      | Journal.Wait_begin { rank; _ } ->
        let w = get waiters rank + 1 in
        Hashtbl.replace waiters rank w;
        [
          counter_event ~name:"blocked waiters" ~rank ~t ~field:"waiters"
            (float_of_int w);
        ]
      | _ -> [])
    (Journal.entries journal)

(* Per-rank egress bandwidth: bucket tile push/pull bytes into
   [slices] time slices and emit one counter sample per slice.
   1 byte/µs = 0.008 Gbit/s. *)
let bandwidth_counter_events ?(slices = 64) ~duration journal =
  if duration <= 0.0 then []
  else begin
    let slice_us = duration /. float_of_int slices in
    let per_rank : (int, float array) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (e : Journal.entry) ->
        match e.Journal.event with
        | Journal.Tile_push { src; dst; bytes; _ }
        | Journal.Tile_pull { src; dst; bytes; _ }
          when src <> dst ->
          let buckets =
            match Hashtbl.find_opt per_rank src with
            | Some b -> b
            | None ->
              let b = Array.make slices 0.0 in
              Hashtbl.add per_rank src b;
              b
          in
          let i =
            min (slices - 1)
              (max 0 (int_of_float (e.Journal.t /. slice_us)))
          in
          buckets.(i) <- buckets.(i) +. bytes
        | _ -> ())
      (Journal.entries journal);
    (* Emit in ascending rank order, not Hashtbl.fold order, so the
       exported artifact is byte-stable across runs. *)
    Hashtbl.fold (fun rank buckets acc -> (rank, buckets) :: acc) per_rank []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.concat_map (fun (rank, buckets) ->
           List.init slices (fun i ->
               let gbps = buckets.(i) /. slice_us *. 0.008 in
               counter_event ~name:"egress Gbps" ~rank
                 ~t:(float_of_int i *. slice_us)
                 ~field:"gbps" gbps))
  end

let instant ~name ~scope ~t ~rank args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "i");
      ("s", Json.Str scope);
      ("ts", Json.Num t);
      ("pid", Json.Num (float_of_int rank));
      ("args", Json.Obj args);
    ]

(* Deadlocks plus every chaos-related journal event: injected faults
   are thread-scoped marks on the owning rank's track, recovery actions
   likewise, stalls are global so they are visible at any zoom. *)
let instant_events ?min_level journal =
  List.filter_map
    (fun (e : Journal.entry) ->
      let t = e.Journal.t in
      match e.Journal.event with
      | Journal.Deadlock { message; blocked } ->
        Some
          (instant ~name:"DEADLOCK" ~scope:"g" ~t ~rank:0
             [
               ("message", Json.Str message);
               ("blocked", Json.Num (float_of_int blocked));
             ])
      | Journal.Fault_injected { kind; key; rank } ->
        Some
          (instant
             ~name:(Printf.sprintf "FAULT %s" kind)
             ~scope:"p" ~t ~rank
             [ ("kind", Json.Str kind); ("key", Json.Str key) ])
      | Journal.Retry { key; rank; attempt } ->
        Some
          (instant ~name:"RETRY" ~scope:"p" ~t ~rank
             [
               ("key", Json.Str key);
               ("attempt", Json.Num (float_of_int attempt));
             ])
      | Journal.Recovered { key; rank; latency } ->
        Some
          (instant ~name:"RECOVERED" ~scope:"p" ~t ~rank
             [ ("key", Json.Str key); ("latency_us", Json.Num latency) ])
      | Journal.Stall_detected { key; rank; threshold; value } ->
        Some
          (instant ~name:"STALL" ~scope:"g" ~t ~rank
             [
               ("key", Json.Str key);
               ("threshold", Json.Num (float_of_int threshold));
               ("value", Json.Num (float_of_int value));
             ])
      | Journal.Degraded { key; rank } ->
        Some (instant ~name:"DEGRADED" ~scope:"p" ~t ~rank
                [ ("key", Json.Str key) ])
      | Journal.Rank_crashed { rank } ->
        Some (instant ~name:"CRASH" ~scope:"g" ~t ~rank [])
      | Journal.Remapped { rank; tiles } ->
        Some
          (instant ~name:"REMAP" ~scope:"g" ~t ~rank
             [ ("tiles", Json.Num (float_of_int tiles)) ])
      | Journal.Resumed { rank; replayed; latency } ->
        Some
          (instant ~name:"RESUME" ~scope:"g" ~t ~rank
             [
               ("replayed", Json.Num (float_of_int replayed));
               ("latency_us", Json.Num latency);
             ])
      | Journal.Request_shed { id; reason } ->
        Some
          (instant ~name:"SHED" ~scope:"p" ~t ~rank:0
             [
               ("id", Json.Num (float_of_int id));
               ("reason", Json.Str reason);
             ])
      | Journal.Tier_change { tier; pressure } ->
        Some
          (instant ~name:"TIER" ~scope:"g" ~t ~rank:0
             [ ("tier", Json.Str tier); ("pressure", Json.Num pressure) ])
      | _ -> None)
    (Journal.entries ?min_level journal)

let process_names ~trace =
  let ranks =
    List.sort_uniq compare
      (List.map (fun s -> s.Trace.rank) (Trace.spans trace))
  in
  List.map
    (fun rank ->
      Json.Obj
        [
          ("name", Json.Str "process_name");
          ("ph", Json.Str "M");
          ("pid", Json.Num (float_of_int rank));
          ( "args",
            Json.Obj [ ("name", Json.Str (Printf.sprintf "rank %d" rank)) ] );
        ])
    ranks

(* [min_level] filters only the instant-event marks: the flow arrows
   and counter tracks are *reconstructed* from Debug-level journal
   entries, so severity filtering must not starve them.  [extra]
   appends caller-supplied events (e.g. the critical-path overlay). *)
let export ?bandwidth_slices ?min_level ?(extra = []) ~trace ~journal () =
  let spans = List.map span_event (Trace.spans trace) in
  let duration = Trace.duration trace in
  Json.List
    (process_names ~trace
    @ spans
    @ flow_events journal
    @ signal_counter_events journal
    @ bandwidth_counter_events ?slices:bandwidth_slices ~duration journal
    @ instant_events ?min_level journal
    @ extra)

let export_string ?bandwidth_slices ?min_level ?extra ~trace ~journal () =
  Json.to_string ~indent:true
    (export ?bandwidth_slices ?min_level ?extra ~trace ~journal ())
