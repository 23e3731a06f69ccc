(** Operator-centric collectives (the NCCL-analog substrate for
    baselines): whole-operator AllGather / ReduceScatter / AllReduce /
    All2All with system-wide entry/exit synchronization. *)

open Tilelink_machine

type algo = Ring | Mesh

type kind =
  | Allgather
  | Reducescatter
  | Allreduce
  | All2all

type t

val create :
  Cluster.t -> kind:kind -> algo:algo -> bytes_per_shard:float -> t
(** Shared synchronization state for one collective invocation. *)

val start_rank : t -> rank:int -> unit
(** Start rank's part as a cursor on the cluster's engine, at the
    current instant; {!Tilelink_sim.Engine.run} then runs it.  Every
    rank of the cluster must be started or the run deadlocks. *)

val standalone_time :
  Spec.t ->
  world_size:int ->
  kind:kind ->
  algo:algo ->
  bytes_per_shard:float ->
  float
(** Simulate the collective alone and return its makespan (µs). *)

(** {2 Pure data-level semantics} *)

open Tilelink_tensor

val allgather_data : Tensor.t list -> Tensor.t
val reduce_data : Tensor.t list -> Tensor.t
val reducescatter_data : Tensor.t list -> Tensor.t list
val allreduce_data : Tensor.t list -> Tensor.t list
val all2all_data : Tensor.t list -> Tensor.t list
