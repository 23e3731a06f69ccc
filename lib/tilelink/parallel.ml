(* The parallel execution backend: lower a mapped program onto the
   domain-team substrate (Tilelink_exec.Backend) and really run it.

   Where the sequential interpreter advances a simulated clock and
   executes data actions from one thread, this backend executes them
   on OCaml 5 domains for real: every task of every role becomes one
   Backend stream homed on its rank's domain (rank mod team size),
   and every signal target key ("pc[r][c]" / "peer[d<-s][c]" /
   "host[d<-s]") becomes one atomic monotonic counter.  Wait/Notify
   lower to acquire loads / release fetch-and-adds on those counters —
   the Pc protocol of instr.ml executed against the real OCaml memory
   model instead of the simulated one.

   Soundness gate: the static analyzer (PR 4) pre-flights every
   program before it is admitted.  The analyzer's reachability
   fixpoint executes each task as its own maximally-parallel stream —
   exactly the stream model the substrate runs — so analyzer-clean
   programs cannot deadlock here for any team size >= 1, and its
   happens-before race check guarantees that all cross-task tensor
   traffic is ordered by the counters the waits acquire.  Any
   protocol-respecting schedule therefore computes bit-identical
   tensors to the sequential interpreter.

   Timing (Sleep) and placement (Load/Store staging tokens) are
   simulation concerns and lower to nothing. *)

module Backend = Tilelink_exec.Backend
module Obs = Tilelink_obs

type result = {
  p_wall_us : float;
  p_notifies : int;
  p_stats : Backend.stats;
  p_key_values : (string * int) list;
}

let lower ~data ~memory (program : Program.t) =
  let counters : (string, Backend.counter) Hashtbl.t = Hashtbl.create 64 in
  let counter_of target =
    let key = Instr.key_of_target target in
    match Hashtbl.find_opt counters key with
    | Some c -> c
    | None ->
      let c = Backend.counter key in
      Hashtbl.add counters key c;
      c
  in
  let streams = ref [] in
  Array.iteri
    (fun rank roles ->
      List.iter
        (fun (role : Program.role) ->
          List.iter
            (fun (task : Program.task) ->
              let ops =
                List.filter_map
                  (fun (instr : Instr.t) ->
                    match instr with
                    | Instr.Wait { target; threshold; _ } ->
                      Some
                        (Backend.Wait
                           { counter = counter_of target; threshold })
                    | Instr.Notify { target; amount; _ } ->
                      Some
                        (Backend.Notify { counter = counter_of target; amount })
                    | Instr.Compute { label; action; _ } -> (
                      match action with
                      | Some act when data ->
                        Some
                          (Backend.Exec
                             { label; run = (fun () -> act memory ~rank) })
                      | Some _ | None -> None)
                    | Instr.Copy { label; src; dst; action; _ } ->
                      if data then
                        let act =
                          match action with
                          | Some act -> act
                          | None -> Dataop.copy_action src dst
                        in
                        Some
                          (Backend.Exec
                             { label; run = (fun () -> act memory ~rank) })
                      else None
                    | Instr.Load _ | Instr.Store _ | Instr.Sleep _ -> None)
                  task.Program.instrs
              in
              let label =
                Printf.sprintf "r%d/%s/%s" rank role.Program.role_name
                  task.Program.label
              in
              streams := Backend.stream ~label ~home:rank ops :: !streams)
            role.Program.tasks)
        roles)
    program.Program.plans;
  (counters, List.rev !streams)

let run ?(data = true) ?memory ~domains (program : Program.t) =
  (match Program.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Parallel.run: invalid program: " ^ msg));
  (* The soundness gate: no program reaches the domains without a
     clean static protocol analysis. *)
  Analyzer.check_exn program;
  let memory =
    match memory with
    | Some m -> m
    | None -> Memory.create ~world_size:(Program.world_size program)
  in
  let counters, streams = lower ~data ~memory program in
  let team = Backend.shared domains in
  let stats = Backend.run team streams in
  let key_values =
    Hashtbl.fold
      (fun key c acc -> (key, Backend.counter_value c) :: acc)
      counters []
    |> List.sort compare
  in
  ( memory,
    {
      p_wall_us = stats.Backend.wall_s *. 1e6;
      p_notifies = stats.Backend.total_notifies;
      p_stats = stats;
      p_key_values = key_values;
    } )
