(** Telemetry-instrumented workload runs: build-once, run-once with a
    traced cluster and a telemetry handle, recording the program's
    static shape as workload gauges. *)

open Tilelink_core
open Tilelink_machine

val run :
  telemetry:Tilelink_obs.Telemetry.t ->
  spec_gpu:Spec.t ->
  Program.t ->
  Cluster.t * Runtime.result
(** Run [program] on a fresh trace-enabled cluster with telemetry
    attached; returns the cluster (for trace export) and the run
    result. *)
