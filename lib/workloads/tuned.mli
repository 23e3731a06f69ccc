(** TileLink's reported numbers: the best point of the decoupled design
    space under the simulator, searched per shape over curated
    candidate lists. *)

open Tilelink_core
open Tilelink_machine

val ag_gemm_candidates : world_size:int -> Design_space.config list
val gemm_rs_candidates : world_size:int -> Design_space.config list

type tuned = {
  best_config : Design_space.config;
  best_time : float;
  candidates_tried : int;
}

val ag_gemm :
  ?pool:Tilelink_exec.Pool.t ->
  ?cache:Tilelink_exec.Cache.t ->
  Spec.t ->
  world_size:int ->
  m:int ->
  k:int ->
  n:int ->
  tuned

val gemm_rs :
  ?pool:Tilelink_exec.Pool.t ->
  ?cache:Tilelink_exec.Cache.t ->
  Spec.t ->
  world_size:int ->
  m:int ->
  k:int ->
  n:int ->
  tuned

val activation_time : Spec.t -> m:int -> i:int -> float
(** Gated-activation kernel between the MLP halves (same for every
    method). *)
