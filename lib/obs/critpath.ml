(* Critical path through a run's span DAG.

   The terminal span is the one finishing last (ties broken towards the
   earliest-recorded span, keeping the walk deterministic).  From it we
   walk backwards along *gating* predecessors — among a span's
   happens-before edges, the one finishing latest is the edge that
   actually delayed it.  Predecessor ids are strictly smaller than
   their successors' (see {!Span}), so the walk terminates, and every
   predecessor ends no later than its successor starts being
   releasable, so the chronological path has non-decreasing end times.

   The forward pass then charges wall-clock exactly once:
     charged(s) = t1(s) - max(t0(s), end of previous path span)
     gap(s)     = max(0, t0(s) - end of previous path span)
   and the leading/tail slack around the path.  By construction
     sum(charged) + sum(gap) + tail = makespan
   with no tolerance needed — the conservation invariant Attribution
   re-checks. *)

type step = {
  span : Span.span;
  charged : float;  (* wall-clock this span uniquely accounts for *)
  gap_before : float;  (* idle time on the path before this span *)
  gap_same_rank : bool;
      (* the gap sits on the same rank as the previous path span (or is
         the leading gap): resource contention rather than a cross-rank
         straggler *)
}

type t = {
  path : step list;  (* chronological *)
  makespan : float;
  tail_slack : float;  (* makespan minus the terminal span's end *)
}

let gating_pred byid (s : Span.span) =
  List.fold_left
    (fun acc p ->
      let cand : Span.span = byid.(p) in
      match acc with
      | None -> Some cand
      | Some (best : Span.span) ->
        if
          cand.Span.t1 > best.Span.t1
          || (cand.Span.t1 = best.Span.t1 && cand.Span.id < best.Span.id)
        then Some cand
        else acc)
    None s.Span.preds

let extract ~makespan spans =
  match spans with
  | [] -> None
  | first :: _ ->
    let n = List.length spans in
    let byid = Array.make n (first : Span.span) in
    List.iter (fun (s : Span.span) -> byid.(s.Span.id) <- s) spans;
    let terminal =
      List.fold_left
        (fun (acc : Span.span) (s : Span.span) ->
          if
            s.Span.t1 > acc.Span.t1
            || (s.Span.t1 = acc.Span.t1 && s.Span.id < acc.Span.id)
          then s
          else acc)
        first spans
    in
    let rec back acc (s : Span.span) =
      match gating_pred byid s with
      | None -> s :: acc
      | Some pred -> back (s :: acc) pred
    in
    let chronological = back [] terminal in
    let path, _, _ =
      List.fold_left
        (fun (acc, prev_end, prev_rank) (s : Span.span) ->
          let gap = Float.max 0.0 (s.Span.t0 -. prev_end) in
          let charged = Float.max 0.0 (s.Span.t1 -. Float.max s.Span.t0 prev_end) in
          let gap_same_rank =
            match prev_rank with None -> true | Some r -> r = s.Span.rank
          in
          ( { span = s; charged; gap_before = gap; gap_same_rank } :: acc,
            Float.max prev_end s.Span.t1,
            Some s.Span.rank ))
        ([], 0.0, None) chronological
    in
    let path = List.rev path in
    let tail_slack = Float.max 0.0 (makespan -. terminal.Span.t1) in
    Some { path; makespan; tail_slack }

(* Wall-clock charged to each rank along the path (gaps excluded),
   sorted by rank. *)
let rank_blame t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun step ->
      let r = step.span.Span.rank in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl r) in
      Hashtbl.replace tbl r (prev +. step.charged))
    t.path;
  List.sort compare (Hashtbl.fold (fun r v acc -> (r, v) :: acc) tbl [])

(* Blocked time per signal key along the path, largest first (key
   breaks ties) — the per-channel blame report.  This sums each path
   wait's full blocked duration, not its exclusive charge: a resolved
   wait's gating predecessor is the delivery that ended it, so its
   charge telescopes to zero and the wall-clock lands on the producer
   chain (the causally correct bucket).  What the report answers is
   the different question of *which channels* the critical chain sat
   blocked on, and for how long. *)
let key_blame t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun step ->
      match (step.span.Span.kind, step.span.Span.key) with
      | Span.Wait_stall, Some key
        when step.span.Span.t1 > step.span.Span.t0 ->
        let blocked = step.span.Span.t1 -. step.span.Span.t0 in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (prev +. blocked)
      | _ -> ())
    t.path;
  List.sort
    (fun (k1, v1) (k2, v2) ->
      match compare v2 v1 with 0 -> compare k1 k2 | c -> c)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let step_to_json step =
  Json.Obj
    [
      ("span", Span.span_to_json step.span);
      ("charged_us", Json.Num step.charged);
      ("gap_before_us", Json.Num step.gap_before);
      ("gap_same_rank", Json.Bool step.gap_same_rank);
    ]

let to_json t =
  Json.Obj
    [
      ("makespan_us", Json.Num t.makespan);
      ("tail_slack_us", Json.Num t.tail_slack);
      ( "rank_blame",
        Json.Obj
          (List.map
             (fun (r, v) -> (string_of_int r, Json.Num v))
             (rank_blame t)) );
      ( "key_blame",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (key_blame t)) );
      ("path", Json.List (List.map step_to_json t.path));
    ]

(* Perfetto overlay: one flow chain threading the critical path, plus a
   duration event per step on a dedicated "critical path" track (pid
   one past the last rank so it sorts after the per-rank process
   groups).  Merging these events into an existing export makes the
   path pop visually without touching the underlying trace. *)
let perfetto_events t =
  let pid = 9999 in
  let step_events =
    List.concat_map
      (fun step ->
        let s = step.span in
        if step.charged <= 0.0 then []
        else
          [
            Json.Obj
              [
                ("name", Json.Str
                   (Printf.sprintf "%s:%s"
                      (Span.kind_to_string s.Span.kind)
                      s.Span.label));
                ("ph", Json.Str "X");
                ("ts", Json.Num (Float.max s.Span.t0 (s.Span.t1 -. step.charged)));
                ("dur", Json.Num step.charged);
                ("pid", Json.Num (float_of_int pid));
                ("tid", Json.Num (float_of_int s.Span.rank));
                ( "args",
                  Json.Obj
                    [
                      ("rank", Json.Num (float_of_int s.Span.rank));
                      ("gap_before_us", Json.Num step.gap_before);
                    ] );
              ];
          ])
      t.path
  in
  let flow phase ~id ~t =
    Json.Obj
      ([
         ("name", Json.Str "critical path");
         ("cat", Json.Str "critpath");
         ("ph", Json.Str phase);
         ("id", Json.Num (float_of_int id));
         ("ts", Json.Num t);
         ("pid", Json.Num (float_of_int pid));
         ("tid", Json.Num 0.0);
       ]
      @ if phase = "f" then [ ("bp", Json.Str "e") ] else [])
  in
  let rec flows i = function
    | s1 :: (s2 :: _ as rest) ->
      flow "s" ~id:(1000000 + i) ~t:s1.span.Span.t1
      :: flow "f" ~id:(1000000 + i) ~t:s2.span.Span.t1
      :: flows (i + 1) rest
    | _ -> []
  in
  let name =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num (float_of_int pid));
        ( "args",
          Json.Obj [ ("name", Json.Str "critical path") ] );
      ]
  in
  name :: step_events @ flows 0 t.path
