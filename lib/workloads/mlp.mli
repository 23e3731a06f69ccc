(** Tensor-parallel MLP kernels built from tile-centric primitives:
    AllGather + GEMM and GEMM + ring ReduceScatter (Figures 1 and 4 of
    the paper).

    Both builders produce programs whose data actions implement real
    tensor semantics, so the same program is validated numerically at
    small shapes and timed at paper shapes.  To profile one, hand the
    built program to {!Profiled.run}. *)

open Tilelink_core
open Tilelink_machine

(** {2 AllGather + GEMM}

    Buffers per rank: ["x_shard"] [m/world, k] input shard, ["x_full"]
    [m, k] gather destination, ["w"] [k, n] weights, ["y"] [m, n]
    output. *)

type ag_gemm_spec = {
  m : int;  (** global rows (batch x seq) *)
  k : int;  (** hidden dim (gather width) *)
  n : int;  (** output columns per rank *)
  world_size : int;
}

val ag_gemm_alloc : ag_gemm_spec -> seed:int -> Memory.t
(** Fresh memories with deterministic random inputs. *)

val ag_gemm_reference :
  Memory.t -> ag_gemm_spec -> rank:int -> Tilelink_tensor.Tensor.t

val ag_gemm_graph : name:string -> ag_gemm_spec -> Planner.graph
(** The operator graph of the kernel: one AllGather of ["x_shard"] into
    ["x_full"] feeding one [Gemm] consumer, named ["gemm"], that reads
    weights ["w"] and writes ["y"]. *)

val ag_gemm_program :
  ?transfer:[ `Pull | `Push ] ->
  config:Design_space.config ->
  ag_gemm_spec ->
  spec_gpu:Spec.t ->
  Program.t
(** The planner's synthesis ({!Planner.synthesize}) of
    [ag_gemm_graph ~name:"ag_gemm"] at the given design-space point,
    with two column chunks per GEMM tile.  [`Pull]
    (default) fetches remote tiles and signals locally; [`Push]
    broadcasts the rank's own tiles to every peer and notifies remote
    consumers (Figure 3b).  Raises [Invalid_argument] when the world
    is smaller than 2, [m] does not divide over it, or the comm tile
    does not divide the shard. *)

(** {2 GEMM + ring ReduceScatter (Figure 4)}

    Buffers per rank: ["act"] [m, k], ["w2"] [k, n], ["gemm_out"] [m, n]
    partials, ["rs_buffer"]/["rs_send"] [m, n] ring buffers, ["out"]
    [m/world, n] final shard. *)

type gemm_rs_spec = {
  rs_m : int;  (** global output rows *)
  rs_k : int;  (** per-rank reduction dim *)
  rs_n : int;
  rs_world : int;
}

val gemm_rs_alloc : gemm_rs_spec -> seed:int -> Memory.t

val gemm_rs_reference :
  Memory.t -> gemm_rs_spec -> rank:int -> Tilelink_tensor.Tensor.t

val gemm_rs_program :
  config:Design_space.config -> gemm_rs_spec -> spec_gpu:Spec.t -> Program.t
