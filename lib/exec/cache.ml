(* Content-addressed evaluation cache.

   Simulator evaluations are deterministic functions of (workload,
   cluster spec, design-space config), so a stable fingerprint of that
   triple addresses the result forever.  The table holds JSON values —
   schema-tagged scores and bounds for the search, whole rows for the
   bench harness — and can persist to disk so repeated CLI / bench / autotune
   invocations skip points that any earlier run already evaluated.

   All operations take the lock, so the cache may be consulted from
   worker domains, though the intended pattern (and what [Tune] does)
   is to look keys up on the coordinating domain and only store results
   there.

   Each entry also records whether [add] wrote it since [create].
   Such an entry was computed by this process, from the code it is
   running, so a caller may trust it more than one loaded from a file
   an older build may have written. *)

type t = {
  table : (string, Tilelink_obs.Json.t * bool) Hashtbl.t;
  lock : Mutex.t;
  path : string option;
  mutable hits : int;
  mutable misses : int;
}

(* FNV-1a 64-bit: stable across runs and OCaml versions, unlike
   [Hashtbl.hash] which makes no such promise for floats inside
   variants. *)
let fingerprint s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_entries table path =
  if Sys.file_exists path then
    match Tilelink_obs.Json.parse (read_file path) with
    | Error _ -> () (* corrupt cache: start empty, next save repairs it *)
    | Ok doc -> (
      match Tilelink_obs.Json.member "entries" doc with
      | Some (Tilelink_obs.Json.Obj kvs) ->
        List.iter (fun (k, v) -> Hashtbl.replace table k (v, false)) kvs
      | _ -> ())

let create ?path () =
  let table = Hashtbl.create 64 in
  Option.iter (load_entries table) path;
  { table; lock = Mutex.create (); path; hits = 0; misses = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (v, _) ->
        t.hits <- t.hits + 1;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t key value =
  locked t (fun () -> Hashtbl.replace t.table key (value, true))

let written t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (_, written) -> written
      | None -> false)

let length t = locked t (fun () -> Hashtbl.length t.table)
let hits t = t.hits
let misses t = t.misses
let path t = t.path

let to_json t =
  locked t (fun () ->
      let entries =
        Hashtbl.fold (fun k (v, _) acc -> (k, v) :: acc) t.table []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Tilelink_obs.Json.Obj
        [
          ("version", Tilelink_obs.Json.Num 1.0);
          ("entries", Tilelink_obs.Json.Obj entries);
        ])

let save t =
  match t.path with
  | None -> ()
  | Some path ->
    let doc = to_json t in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Tilelink_obs.Json.to_string ~indent:true doc);
        output_string oc "\n")

let record t telemetry =
  let m = Tilelink_obs.Telemetry.metrics telemetry in
  if Tilelink_obs.Metrics.enabled m then begin
    Tilelink_obs.Metrics.set_gauge m "cache.hits" (float_of_int t.hits);
    Tilelink_obs.Metrics.set_gauge m "cache.misses" (float_of_int t.misses);
    Tilelink_obs.Metrics.set_gauge m "cache.size" (float_of_int (length t))
  end
