(* Admissible makespan lower bound.

   Every instruction the interpreter runs takes at least a known time:
   its cost-model duration with each slowdown at its least value.
   Three resources serialize that work, and each gives a floor:
   a task's instructions run back to back on one worker, a role's
   tasks share its workers, and a rank's SM roles share its SMs.  All
   roles start after one kernel launch.  Waiting for a signal, a busy
   link or a free unit only adds time, so the largest floor is a
   bound.  The planner search skips simulating a candidate whose bound
   already exceeds a known makespan. *)

open Tilelink_machine

(* Summing the same durations in another order moves a float by a few
   ulps; this margin keeps the bound below any reassociated sum. *)
let reassociation_margin = 1.0 -. 1e-9

let makespan cluster (program : Program.t) =
  let spec = Cluster.spec cluster in
  let o = spec.Spec.overheads in
  let launch = o.Spec.kernel_launch in
  let interference = Float.min 1.0 o.Spec.fusion_interference in
  let num_sms = spec.Spec.gpu.Spec.num_sms in
  let instr_work ~rank ~scale = function
    | Instr.Compute { cost; _ } ->
      Instr.cost_duration spec ~sms:1 cost *. interference *. scale
    | Instr.Copy { src; dst; bytes; _ } ->
      let src = Dataop.resolve_rank ~self:rank src.Instr.mem_rank in
      let dst = Dataop.resolve_rank ~self:rank dst.Instr.mem_rank in
      if src = dst then
        Cost.memory_pass_time spec ~sms:num_sms ~bytes:(2.0 *. bytes)
      else Cluster.transfer_duration cluster ~src ~dst ~bytes
    | Instr.Wait _ -> Float.max 0.0 o.Spec.signal_wait
    | Instr.Notify _ -> Float.max 0.0 o.Spec.signal_notify
    | Instr.Load _ | Instr.Store _ | Instr.Sleep _ -> 0.0
  in
  (* A task's serial work, and the part of it spent computing. *)
  let task_work ~rank ~scale (task : Program.task) =
    List.fold_left
      (fun (work, compute) instr ->
        let w = instr_work ~rank ~scale instr in
        match instr with
        | Instr.Compute _ -> (work +. w, compute +. w)
        | _ -> (work +. w, compute))
      (0.0, 0.0) task.Program.instrs
  in
  let bound = ref 0.0 in
  let raise_to t = if t > !bound then bound := t in
  Array.iteri
    (fun rank roles ->
      let scale =
        Float.min 1.0 (Cluster.compute_scale cluster ~rank_id:rank)
      in
      let sm_compute = ref 0.0 in
      List.iter
        (fun (role : Program.role) ->
          let workers =
            match role.Program.resource with
            | Program.Sm_partition n | Program.Dma_engines n -> n
            | Program.Host_stream -> 1
          in
          (* A role without workers never runs its tasks. *)
          if workers > 0 then begin
            let role_work = ref 0.0 in
            List.iter
              (fun task ->
                let work, compute = task_work ~rank ~scale task in
                raise_to (launch +. work);
                role_work := !role_work +. work;
                match role.Program.resource with
                | Program.Sm_partition _ ->
                  sm_compute := !sm_compute +. compute
                | Program.Dma_engines _ | Program.Host_stream -> ())
              role.Program.tasks;
            raise_to (launch +. (!role_work /. float_of_int workers))
          end)
        roles;
      if roles <> [] then
        raise_to (launch +. (!sm_compute /. float_of_int num_sms)))
    (Program.plans program);
  !bound *. reassociation_margin
