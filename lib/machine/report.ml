(* Overlap accounting from simulation traces.

   The paper's overlap ratio (§7.2) is computed from three separate
   wall-clock measurements; with a trace we can do better and measure
   the overlap *directly*: per rank, the time both a compute lane and a
   communication lane were busy simultaneously. *)

module Trace = Tilelink_sim.Trace

type rank_report = {
  rank : int;
  compute_busy : float;   (* union of compute-lane spans *)
  comm_busy : float;      (* union of comm/dma/host/link spans *)
  overlapped : float;     (* time both were busy *)
  wait_time : float;      (* recorded barrier-wait spans *)
  makespan : float;
}

let is_compute_lane = function
  | Trace.Compute_sm -> true
  | Trace.Comm_sm | Trace.Dma | Trace.Host | Trace.Wait -> false

let is_comm_lane = function
  | Trace.Comm_sm | Trace.Dma | Trace.Host -> true
  | Trace.Compute_sm | Trace.Wait -> false

(* Union of intervals as a sorted disjoint list. *)
let merge_intervals intervals =
  let sorted = List.sort compare intervals in
  List.fold_left
    (fun acc (lo, hi) ->
      match acc with
      | (alo, ahi) :: rest when lo <= ahi -> (alo, Float.max hi ahi) :: rest
      | _ -> (lo, hi) :: acc)
    [] sorted
  |> List.rev

let total intervals =
  List.fold_left (fun acc (lo, hi) -> acc +. (hi -. lo)) 0.0 intervals

(* Intersection of two sorted disjoint interval lists. *)
let intersect a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (alo, ahi) :: arest, (blo, bhi) :: brest ->
      let lo = Float.max alo blo and hi = Float.min ahi bhi in
      let acc = if lo < hi then (lo, hi) :: acc else acc in
      if ahi < bhi then go acc arest b else go acc a brest
  in
  go [] a b

let rank_report trace ~rank =
  let spans_of pred =
    List.filter_map
      (fun s ->
        if s.Trace.rank = rank && pred s.Trace.lane then
          Some (s.Trace.t0, s.Trace.t1)
        else None)
      (Trace.spans trace)
  in
  let compute = merge_intervals (spans_of is_compute_lane) in
  let comm = merge_intervals (spans_of is_comm_lane) in
  let waits = merge_intervals (spans_of (fun l -> l = Trace.Wait)) in
  {
    rank;
    compute_busy = total compute;
    comm_busy = total comm;
    overlapped = total (intersect compute comm);
    wait_time = total waits;
    makespan = Trace.duration trace;
  }

(* The paper's ratio, measured: comm hidden behind compute, as a
   fraction of all communication time. *)
let overlap_ratio r =
  if r.comm_busy <= 0.0 then 0.0 else r.overlapped /. r.comm_busy

let all_ranks trace ~world_size =
  List.init world_size (fun rank -> rank_report trace ~rank)

let pp ppf r =
  Fmt.pf ppf
    "rank %d: compute %.1fus, comm %.1fus, overlapped %.1fus (ratio %.2f), \
     waits %.1fus"
    r.rank r.compute_busy r.comm_busy r.overlapped (overlap_ratio r)
    r.wait_time
