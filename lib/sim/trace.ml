(* Timeline tracing.

   Every interesting activity (a tile's GEMM, a DMA copy, a barrier
   wait) records a span: which rank, which hardware lane, a label, and
   the [t0, t1] interval.  Spans feed the overlap-ratio computation of
   Figure 10 and the ASCII timelines printed by the CLI. *)

type lane =
  | Compute_sm
  | Comm_sm
  | Dma
  | Host
  | Wait

let lane_to_string = function
  | Compute_sm -> "compute-sm"
  | Comm_sm -> "comm-sm"
  | Dma -> "dma"
  | Host -> "host"
  | Wait -> "wait"

type span = {
  rank : int;
  lane : lane;
  label : string;
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list; enabled : bool }

let create ?(enabled = true) () = { spans = []; enabled }

let add t ~rank ~lane ~label ~t0 ~t1 =
  if t.enabled then begin
    if t1 < t0 then invalid_arg "Trace.add: span ends before it starts";
    t.spans <- { rank; lane; label; t0; t1 } :: t.spans
  end

let spans t = List.rev t.spans

let duration t =
  List.fold_left (fun acc s -> Float.max acc s.t1) 0.0 t.spans

(* Total time covered by at least one span matching [pred]: merge the
   sorted intervals.  Used for overlap-ratio accounting where spans on
   the same lane may abut or overlap. *)
let covered_time ?(pred = fun _ -> true) t =
  let intervals =
    List.filter pred t.spans
    |> List.map (fun s -> (s.t0, s.t1))
    |> List.sort compare
  in
  let rec merge acc = function
    | [] -> acc
    | (a, b) :: rest -> (
      match acc with
      | (a0, b0) :: acc_rest when a <= b0 ->
        merge ((a0, Float.max b b0) :: acc_rest) rest
      | _ -> merge ((a, b) :: acc) rest)
  in
  merge [] intervals
  |> List.fold_left (fun sum (a, b) -> sum +. (b -. a)) 0.0

let busy_time ?pred t =
  match pred with
  | None -> covered_time t
  | Some p -> covered_time ~pred:p t

(* Chrome tracing format (chrome://tracing or https://ui.perfetto.dev):
   one complete event per span, rank as process, lane as thread. *)
let to_chrome_json t =
  let escape label =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | c -> String.make 1 c)
         (List.init (String.length label) (String.get label)))
  in
  let event s =
    Printf.sprintf
      {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":"%s"}|}
      (escape s.label) s.t0 (s.t1 -. s.t0) s.rank (lane_to_string s.lane)
  in
  "[" ^ String.concat ",\n" (List.map event (spans t)) ^ "]\n"

(* Render a coarse ASCII timeline: one row per (rank, lane), [width]
   columns spanning [0, duration]. *)
let render t =
  let width = 72 in
  let total = duration t in
  if total <= 0.0 then "(empty trace)"
  else begin
    let rows = Hashtbl.create 16 in
    let keys = ref [] in
    List.iter
      (fun s ->
        let key = (s.rank, s.lane) in
        if not (Hashtbl.mem rows key) then begin
          Hashtbl.add rows key (Bytes.make width '.');
          keys := key :: !keys
        end;
        let row = Hashtbl.find rows key in
        let c0 =
          int_of_float (s.t0 /. total *. float_of_int (width - 1))
        in
        let c1 =
          int_of_float (s.t1 /. total *. float_of_int (width - 1))
        in
        let mark =
          match s.lane with
          | Compute_sm -> '#'
          | Comm_sm -> '+'
          | Dma -> '='
          | Host -> 'h'
          | Wait -> 'w'
        in
        for c = c0 to min c1 (width - 1) do
          Bytes.set row c mark
        done)
      (spans t);
    let buffer = Buffer.create 256 in
    List.iter
      (fun ((rank, lane) as key) ->
        Buffer.add_string buffer
          (Printf.sprintf "r%d %-10s |%s|\n" rank (lane_to_string lane)
             (Bytes.to_string (Hashtbl.find rows key))))
      (List.sort compare !keys);
    Buffer.add_string buffer
      (Printf.sprintf "total: %.1f us (# compute, = dma, + comm-sm, - link)"
         total);
    Buffer.contents buffer
  end
