(* Makespan attribution: decompose one run's end-to-end time into
   conserved buckets along the critical path.

     compute       Compute spans on the path
     exposed_comm  Copy (and zero-width Notify) spans on the path —
                   communication the schedule failed to hide
     wait_stall    blocked notify/wait time on the path
     contention    same-rank path gaps (queueing on SM/DMA pools,
                   launch latency) — time no span accounts for but the
                   critical rank was busy acquiring resources
     straggler     cross-rank path gaps plus tail slack: the critical
                   chain waited on another rank's pace
     recovery      Retry and Replay spans — fault-recovery work

   The invariant [bucket_sum = makespan] is exact (the critical path
   charges wall-clock exactly once); [conserved] allows a tolerance
   only for float round-off.

   The overlap-efficiency score compares exposed communication against
   all communication the run performed: efficiency = 1 -
   exposed/total.  A perfectly overlapped schedule hides every copy
   behind compute (efficiency 1); a serial schedule exposes every copy
   (efficiency 0). *)

type buckets = {
  compute : float;
  exposed_comm : float;
  wait_stall : float;
  contention : float;
  straggler : float;
  recovery : float;
}

type t = {
  buckets : buckets;
  makespan : float;
  total_comm : float;  (* sum of all Copy span durations, on-path or not *)
  hidden_comm : float;  (* total_comm - exposed_comm, clamped at 0 *)
  efficiency : float;  (* 1 - exposed/total, in [0, 1]; 1 when no comm *)
  cross_island_recovery : float;
      (* informational sub-metric of recovery: total duration of Replay
         spans executed on a survivor *outside* the dead rank's NVLink
         island (labels carry the runtime's "@x" marker).  Sums all
         such spans, on-path or not, so it is not part of the conserved
         bucket identity. *)
}

(* Cross-island replays are labelled "<label>@x" by the runtime. *)
let is_cross_island_label label = String.ends_with ~suffix:"@x" label

let empty_buckets =
  {
    compute = 0.0;
    exposed_comm = 0.0;
    wait_stall = 0.0;
    contention = 0.0;
    straggler = 0.0;
    recovery = 0.0;
  }

let bucket_sum t =
  t.buckets.compute +. t.buckets.exposed_comm +. t.buckets.wait_stall
  +. t.buckets.contention +. t.buckets.straggler +. t.buckets.recovery

let conserved ?(tolerance = 1.0) t = Float.abs (bucket_sum t -. t.makespan) <= tolerance

let of_spans ~makespan spans =
  let total_comm =
    List.fold_left
      (fun acc (s : Span.span) ->
        match s.Span.kind with
        | Span.Copy -> acc +. (s.Span.t1 -. s.Span.t0)
        | _ -> acc)
      0.0 spans
  in
  let cross_island_recovery =
    List.fold_left
      (fun acc (s : Span.span) ->
        match s.Span.kind with
        | Span.Replay when is_cross_island_label s.Span.label ->
          acc +. (s.Span.t1 -. s.Span.t0)
        | _ -> acc)
      0.0 spans
  in
  let buckets =
    match Critpath.extract ~makespan spans with
    | None ->
      (* No spans at all: the whole run is unexplained slack. *)
      { empty_buckets with straggler = makespan }
    | Some cp ->
      let b =
        List.fold_left
          (fun b (step : Critpath.step) ->
            let b =
              if step.Critpath.gap_before > 0.0 then
                if step.Critpath.gap_same_rank then
                  { b with contention = b.contention +. step.Critpath.gap_before }
                else
                  { b with straggler = b.straggler +. step.Critpath.gap_before }
              else b
            in
            let c = step.Critpath.charged in
            match step.Critpath.span.Span.kind with
            | Span.Compute -> { b with compute = b.compute +. c }
            | Span.Copy | Span.Notify ->
              { b with exposed_comm = b.exposed_comm +. c }
            | Span.Wait_stall -> { b with wait_stall = b.wait_stall +. c }
            | Span.Retry | Span.Replay -> { b with recovery = b.recovery +. c })
          empty_buckets cp.Critpath.path
      in
      { b with straggler = b.straggler +. cp.Critpath.tail_slack }
  in
  let exposed = buckets.exposed_comm in
  let efficiency =
    if total_comm > 0.0 then
      Float.max 0.0 (Float.min 1.0 (1.0 -. (exposed /. total_comm)))
    else 1.0
  in
  let hidden_comm = Float.max 0.0 (total_comm -. exposed) in
  { buckets; makespan; total_comm; hidden_comm; efficiency;
    cross_island_recovery }

let to_json t =
  Json.Obj
    [
      ("makespan_us", Json.Num t.makespan);
      ( "buckets",
        Json.Obj
          [
            ("compute_us", Json.Num t.buckets.compute);
            ("exposed_comm_us", Json.Num t.buckets.exposed_comm);
            ("wait_stall_us", Json.Num t.buckets.wait_stall);
            ("contention_us", Json.Num t.buckets.contention);
            ("straggler_us", Json.Num t.buckets.straggler);
            ("recovery_us", Json.Num t.buckets.recovery);
          ] );
      ("bucket_sum_us", Json.Num (bucket_sum t));
      ("total_comm_us", Json.Num t.total_comm);
      ("hidden_comm_us", Json.Num t.hidden_comm);
      ("overlap_efficiency", Json.Num t.efficiency);
      ("cross_island_recovery_us", Json.Num t.cross_island_recovery);
    ]

let to_string t =
  String.concat "\n"
    [
      Printf.sprintf "makespan attribution (%.1f us):" t.makespan;
      Printf.sprintf "  pure compute          %10.2f us" t.buckets.compute;
      Printf.sprintf "  exposed communication %10.2f us" t.buckets.exposed_comm;
      Printf.sprintf "  wait stall            %10.2f us" t.buckets.wait_stall;
      Printf.sprintf "  resource contention   %10.2f us" t.buckets.contention;
      Printf.sprintf "  straggler slack       %10.2f us" t.buckets.straggler;
      Printf.sprintf "  recovery overhead     %10.2f us" t.buckets.recovery;
      Printf.sprintf "    of which cross-island replay %10.2f us (all spans)"
        t.cross_island_recovery;
      Printf.sprintf "  (bucket sum           %10.2f us)" (bucket_sum t);
      Printf.sprintf "total communication     %10.2f us (hidden %.2f us)"
        t.total_comm t.hidden_comm;
      Printf.sprintf "overlap efficiency      %10.1f %%\n"
        (100.0 *. t.efficiency);
    ]
