(* Domain-based work pool for independent, deterministic tasks.

   Every evaluation sweep in this code base — autotuning, benchmark
   grids, ablations — is a list of pure simulator runs, so the pool is
   deliberately simple: tasks self-schedule off one atomic counter
   (dynamic chunking degenerates to work-stealing granularity 1),
   results land in a slot array indexed by task position, and the
   caller sees exactly the ordering it would get from [List.map].
   Exceptions never cross domains raw: each task is captured into a
   [result] and re-raised, if at all, by the caller on the coordinating
   domain.

   Domains are spawned per [map] call and joined before it returns.
   Sweeps here run thousands of simulator events per task, so spawn
   cost (~10 us per domain) is noise, and the pool never holds idle
   domains hostage between sweeps. *)

exception Task_timeout of float
(* Measured task duration in seconds; see [task_timeout_s]. *)

type stats = {
  tasks_run : int;
  stolen : int;
  task_time_s : float;
  wall_time_s : float;
  runs : int;
  timeouts : int;
}

type t = {
  domains : int;
  telemetry : Tilelink_obs.Telemetry.t option;
  task_timeout_s : float option;
  mutable tasks_run : int;
  mutable stolen : int;
  mutable task_time_s : float;
  mutable wall_time_s : float;
  mutable runs : int;
  mutable timeouts : int;
}

let create ?domains ?task_timeout_s ?telemetry () =
  let domains =
    match domains with
    | Some n ->
      if n < 1 then invalid_arg "Pool.create: domains must be >= 1";
      n
    | None -> Domain.recommended_domain_count ()
  in
  (match task_timeout_s with
  | Some s when s <= 0.0 -> invalid_arg "Pool.create: task_timeout_s must be > 0"
  | _ -> ());
  {
    domains;
    telemetry;
    task_timeout_s;
    tasks_run = 0;
    stolen = 0;
    task_time_s = 0.0;
    wall_time_s = 0.0;
    runs = 0;
    timeouts = 0;
  }

let domains t = t.domains

let stats t =
  {
    tasks_run = t.tasks_run;
    stolen = t.stolen;
    task_time_s = t.task_time_s;
    wall_time_s = t.wall_time_s;
    runs = t.runs;
    timeouts = t.timeouts;
  }

(* Run [tasks] to completion and fill [results]/[latencies]/[owners].
   Worker [w] claims the next unclaimed index until none remain; the
   slot arrays are written at disjoint indices, so no two domains ever
   touch the same location. *)
let execute ~workers tasks results latencies owners =
  let n = Array.length tasks in
  if workers <= 1 then
    Array.iteri
      (fun i task ->
        let t0 = Unix.gettimeofday () in
        results.(i) <- (try Ok (task ()) with e -> Error e);
        latencies.(i) <- Unix.gettimeofday () -. t0)
      tasks
  else begin
    let next = Atomic.make 0 in
    let worker w () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let t0 = Unix.gettimeofday () in
          results.(i) <- (try Ok (tasks.(i) ()) with e -> Error e);
          latencies.(i) <- Unix.gettimeofday () -. t0;
          owners.(i) <- w;
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      Array.init (workers - 1) (fun w -> Domain.spawn (worker (w + 1)))
    in
    worker 0 ();
    Array.iter Domain.join spawned
  end

let record_run t ~n ~stolen ~timeouts ~latencies ~wall =
  t.tasks_run <- t.tasks_run + n;
  t.stolen <- t.stolen + stolen;
  t.task_time_s <- t.task_time_s +. Array.fold_left ( +. ) 0.0 latencies;
  t.wall_time_s <- t.wall_time_s +. wall;
  t.runs <- t.runs + 1;
  t.timeouts <- t.timeouts + timeouts;
  match Option.map Tilelink_obs.Telemetry.metrics t.telemetry with
  | Some m when Tilelink_obs.Metrics.enabled m ->
    Tilelink_obs.Metrics.inc m ~by:n "pool.tasks";
    Tilelink_obs.Metrics.inc m ~by:stolen "pool.stolen";
    if timeouts > 0 then
      Tilelink_obs.Metrics.inc m ~by:timeouts "pool.task_timeouts";
    Tilelink_obs.Metrics.set_gauge m "pool.domains" (float_of_int t.domains);
    Array.iter
      (fun dt -> Tilelink_obs.Metrics.observe m "pool.task_us" (dt *. 1.0e6))
      latencies
  | _ -> ()

let map_array t tasks =
  let n = Array.length tasks in
  let results : ('a, exn) result array = Array.make n (Error Not_found) in
  if n > 0 then begin
    let latencies = Array.make n 0.0 in
    let owners = Array.make n 0 in
    let workers = min t.domains n in
    let wall0 = Unix.gettimeofday () in
    execute ~workers tasks results latencies owners;
    let wall = Unix.gettimeofday () -. wall0 in
    (* A task is "stolen" when dynamic scheduling moved it off the
       worker a fair static block partition would have given it — a
       load-imbalance signal, not a correctness property. *)
    let stolen = ref 0 in
    if workers > 1 then
      Array.iteri
        (fun i w -> if w <> i * workers / n then incr stolen)
        owners;
    (* Cooperative timeout: domains cannot be killed, so an over-budget
       task is converted to [Error Task_timeout] after it returns — the
       sweep keeps its other results instead of wedging on one trial.
       (True hang protection inside a simulation comes from the chaos
       watchdog, which bounds waits in virtual time.) *)
    let timeouts = ref 0 in
    (match t.task_timeout_s with
    | Some budget ->
      Array.iteri
        (fun i dt ->
          if dt > budget then begin
            incr timeouts;
            match results.(i) with
            | Ok _ -> results.(i) <- Error (Task_timeout dt)
            | Error _ -> ()
          end)
        latencies
    | None -> ());
    record_run t ~n ~stolen:!stolen ~timeouts:!timeouts ~latencies ~wall
  end;
  results

let map pool f xs =
  match pool with
  | None ->
    (* Sequential fallback: same capture semantics, no pool required. *)
    List.map (fun x -> try Ok (f x) with e -> Error e) xs
  | Some t ->
    let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
    Array.to_list (map_array t tasks)

let get = function Ok v -> v | Error e -> raise e
