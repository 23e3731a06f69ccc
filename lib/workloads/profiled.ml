(* Telemetry-instrumented workload runs.

   The workload builders produce a [Program.t]; this helper runs one on
   a fresh traced cluster with a telemetry handle attached, and records
   the program's static shape (roles, tasks per lane, channel-space
   size) as workload-level gauges next to the dynamic counters the
   runtime emits.  Workload modules wrap it so the CLI's [profile]
   subcommand gets a one-call entry point per kernel. *)

open Tilelink_core
open Tilelink_machine
module Obs = Tilelink_obs

let record_program_shape telemetry (program : Program.t) =
  let m = Obs.Telemetry.metrics telemetry in
  if Obs.Metrics.enabled m then begin
    Obs.Metrics.set_gauge m "workload.world_size"
      (float_of_int (Program.world_size program));
    Obs.Metrics.set_gauge m "workload.pc_channels"
      (float_of_int program.Program.pc_channels);
    Obs.Metrics.set_gauge m "workload.peer_channels"
      (float_of_int program.Program.peer_channels);
    Array.iter
      (fun plan ->
        List.iter
          (fun (role : Program.role) ->
            Obs.Metrics.inc m "workload.roles";
            Obs.Metrics.inc m
              ~by:(List.length role.Program.tasks)
              (Printf.sprintf "workload.tasks.%s"
                 (Tilelink_sim.Trace.lane_to_string role.Program.lane)))
          plan)
      (Program.plans program)
  end

let run ~telemetry ~spec_gpu (program : Program.t) =
  let cluster =
    Cluster.create ~trace_enabled:true spec_gpu
      ~world_size:(Program.world_size program)
  in
  record_program_shape telemetry program;
  let result = Runtime.run ~telemetry cluster program in
  (cluster, result)
