(* Benchmark-side host spans.

   The traced pass wraps every public call it makes into a layer in a
   span and keeps the spans in memory; they are written out once, when
   the benchmark ends.  Spans only ever nest (a span opened inside
   another closes before it), so a span's self time is its duration
   minus the durations of its direct children.  Spans of the [probe]
   layer are extra measurements (an untraced re-run, a bare GEMM) that
   the workload would not do on its own: they are left out of every
   self time and of the conservation check. *)

module Json = Tilelink_obs.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  item : int;  (** candidate id, -1 when the span belongs to none *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable next : int;
  mutable open_ : int list;  (** innermost open span first *)
  mutable spans : span list;  (** most recently closed first *)
}

let create () = { next = 0; open_ = []; spans = [] }
let probe = "probe"
let duration s = s.t1 -. s.t0

let span t ~layer ~name ?(item = -1) f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; parent; layer; name; item; t0; t1 } :: t.spans)

(* [wrap None] is the untraced path: the call runs bare. *)
let wrap t ~layer ~name f =
  match t with None -> f () | Some t -> span t ~layer ~name f

let spans t = List.rev t.spans

(* (span, self seconds) for every span outside the probe layer. *)
let self_times t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    t.spans;
  List.filter_map
    (fun s ->
      if s.layer = probe then None
      else
        Some
          ( s,
            duration s
            -. Option.value ~default:0. (Hashtbl.find_opt children s.id) ))
    (spans t)

let probe_seconds t =
  List.fold_left
    (fun acc s -> if s.layer = probe then acc +. duration s else acc)
    0. t.spans

let to_json t =
  let origin = match spans t with [] -> 0. | s :: _ -> s.t0 in
  let us x = Json.Num ((x -. origin) *. 1e6) in
  Json.Obj
    [
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Num (float_of_int s.id));
                   ("parent", Json.Num (float_of_int s.parent));
                   ("layer", Json.Str s.layer);
                   ("name", Json.Str s.name);
                   ("item", Json.Num (float_of_int s.item));
                   ("t0_us", us s.t0);
                   ("t1_us", us s.t1);
                 ])
             (spans t)) );
    ]
