(* Overlapped-kernel programs: lowered per-rank, per-role instruction
   streams plus the channel-space layout they synchronize through.

   A *role* is one resource-bound component of a fused kernel — e.g.
   "communication on 20 SMs", "computation on the remaining SMs",
   "AllGather on the copy engine", "host stream".  Each role executes a
   list of *tasks* (one per tile) in order, spread over its workers. *)

type resource =
  | Sm_partition of int   (* dedicated SMs inside the fused kernel *)
  | Dma_engines of int    (* copy-engine channels *)
  | Host_stream           (* host-driven sequence *)

let resource_to_string = function
  | Sm_partition n -> Printf.sprintf "sm(%d)" n
  | Dma_engines n -> Printf.sprintf "dma(%d)" n
  | Host_stream -> "host"

type task = { label : string; instrs : Instr.t list }

type role = {
  role_name : string;
  resource : resource;
  lane : Tilelink_sim.Trace.lane;
  tasks : task list;
}

type t = {
  name : string;
  world_size : int;
  pc_channels : int;    (* producer/consumer channels per rank *)
  peer_channels : int;  (* peer channels per (src, dst) pair *)
  plans : role list array;  (* one role list per rank *)
}

let create ~name ~world_size ~pc_channels ~peer_channels plans =
  if Array.length plans <> world_size then
    invalid_arg "Program.create: need one plan per rank";
  if pc_channels <= 0 || peer_channels <= 0 then
    invalid_arg "Program.create: channel counts must be positive";
  { name; world_size; pc_channels; peer_channels; plans }

let name t = t.name
let world_size t = t.world_size
let plans t = t.plans

let role_count t =
  Array.fold_left (fun acc plan -> acc + List.length plan) 0 t.plans

let task_count t =
  Array.fold_left
    (fun acc plan ->
      acc + List.fold_left (fun a role -> a + List.length role.tasks) 0 plan)
    0 t.plans

(* Every whole-program pass (validation, the protocol analyzer, fault
   transforms) walks the same rank / role / task nesting; one iterator
   keeps the traversal order — rank-major, roles then tasks in plan
   order — consistent across them. *)
let iter_tasks t ~f =
  Array.iteri
    (fun rank plan ->
      List.iter
        (fun role -> List.iter (fun task -> f ~rank role task) role.tasks)
        plan)
    t.plans

let instr_count t =
  Array.fold_left
    (fun acc plan ->
      acc
      + List.fold_left
          (fun a role ->
            a
            + List.fold_left
                (fun b task -> b + List.length task.instrs)
                0 role.tasks)
          0 plan)
    0 t.plans

(* Validate every signal target against the program's channel layout;
   catches builder bugs before a simulation deadlocks. *)
let validate t =
  let check_target = function
    | Instr.Pc { rank; channel } ->
      if rank < 0 || rank >= t.world_size then
        Error (Printf.sprintf "pc target rank %d out of range" rank)
      else if channel < 0 || channel >= t.pc_channels then
        Error (Printf.sprintf "pc channel %d out of range" channel)
      else Ok ()
    | Instr.Peer { src; dst; channel } ->
      if src < 0 || src >= t.world_size || dst < 0 || dst >= t.world_size
      then Error "peer target rank out of range"
      else if channel < 0 || channel >= t.peer_channels then
        Error (Printf.sprintf "peer channel %d out of range" channel)
      else Ok ()
    | Instr.Host { src; dst } ->
      if src < 0 || src >= t.world_size || dst < 0 || dst >= t.world_size
      then Error "host target rank out of range"
      else Ok ()
  in
  let check_instr = function
    | Instr.Wait { target; _ } | Instr.Notify { target; _ } ->
      check_target target
    | Instr.Load _ | Instr.Store _ | Instr.Compute _ | Instr.Copy _
    | Instr.Sleep _ ->
      Ok ()
  in
  let rec first_error = function
    | [] -> Ok ()
    | x :: rest -> ( match check_instr x with Ok () -> first_error rest | e -> e)
  in
  let result = ref (Ok ()) in
  iter_tasks t ~f:(fun ~rank:_ _role task ->
      match !result with
      | Error _ -> ()
      | Ok () -> result := first_error task.instrs);
  !result

let pp ppf t =
  Fmt.pf ppf "program %s: %d ranks, %d roles, %d tasks, %d instrs" t.name
    t.world_size (role_count t) (task_count t) (instr_count t)
