(** A simulated GPU cluster: per-rank SM and DMA pools, NVLink egress
    servers, per-node NICs, an engine and a trace. *)

type rank = {
  id : int;
  node : int;
  sms : Tilelink_sim.Resource.t;
  dma : Tilelink_sim.Resource.t;
  nvlink_egress : Tilelink_sim.Bandwidth.t;
}

type t

(** A machine-level disturbance for fault injection: time-varying
    link/NIC rate multipliers, per-rank compute-straggler multipliers
    and copy-engine stall durations.  Every function must depend only
    on its arguments (no wall clock, no hidden mutation) so a seeded
    schedule replays identically. *)
type disturbance = {
  link_rate : rank:int -> now:float -> float;
      (** NVLink-egress rate multiplier for [rank] at sim time [now]. *)
  nic_rate : node:int -> now:float -> float;
  compute : rank:int -> now:float -> float;
      (** Kernel-duration multiplier (>= 1.0 models a straggler). *)
  copy_stall_us : rank:int -> now:float -> float;
      (** Extra stall, in µs, charged before a copy issued at [now]. *)
}

val create :
  ?trace_enabled:bool -> ?topology:Topology.t -> Spec.t -> world_size:int -> t
(** [?topology] compiles a declarative topology against [world_size]:
    node membership follows the topology's islands (overriding
    [Spec.gpus_per_node]), heterogeneous link scales narrow per-rank
    NVLink rates statically, heterogeneous compute scales feed
    {!compute_scale}, and a co-tenant NIC tax is installed as the base
    throttle on every node NIC.  Omitting it preserves the historical
    flat layout exactly. *)

val set_disturbance : t -> disturbance -> unit
(** Install a disturbance: wires {!Tilelink_sim.Bandwidth.set_throttle}
    onto every NVLink egress server and NIC, and exposes compute/copy
    factors through {!compute_scale} and {!copy_stall_us}.  Composes
    multiplicatively with the topology's base co-tenant NIC tax. *)

val clear_disturbance : t -> unit
(** Remove the disturbance; the topology's base NIC tax (if any) is
    restored, not cleared. *)

val compute_scale : t -> rank_id:int -> float
(** Straggler multiplier for [rank_id] at the current sim instant: the
    topology's static heterogeneity factor times the disturbance's
    (1.0 on a homogeneous cluster with no disturbance). *)

val island_of : t -> rank_id:int -> int
(** The NVLink island (= node) hosting [rank_id]. *)

val copy_stall_us : t -> rank_id:int -> float
(** Copy-engine stall to charge before a copy issued now (0.0 without
    a disturbance). *)

val spec : t -> Spec.t
val world_size : t -> int
val engine : t -> Tilelink_sim.Engine.t
val trace : t -> Tilelink_sim.Trace.t
val rank : t -> int -> rank
val now : t -> float
val same_node : t -> int -> int -> bool

val kill_rank : t -> rank_id:int -> unit
(** Crash a rank for good: transfers touching it fail fast until
    {!mark_recovered}. *)

val mark_recovered : t -> rank_id:int -> unit
(** The failover coordinator re-hosted the rank's symmetric memory on
    the survivors: transfers touching the (still dead) rank succeed
    again, modelling reads/writes of the recovered shard. *)

val link : t -> src:int -> dst:int -> Tilelink_sim.Bandwidth.t
(** The server a transfer from [src] to [dst] ([src <> dst]) binds
    on: [src]'s NVLink egress within a node, [src]'s node NIC across
    nodes.  A transfer runs {!Tilelink_sim.Bandwidth}'s phases on it. *)

val transfer_ok : t -> src:int -> dst:int -> bool
(** Whether a (non-forced) transfer between these endpoints would
    actually move data right now.  A transfer touching a dead,
    unrecovered rank moves nothing and takes no time; the caller must
    treat the destination contents as garbage.  The failover replay
    forces its transfers, as it runs against recovered memory. *)

val transfer_duration : t -> src:int -> dst:int -> bytes:float -> float

val record_utilization : t -> Tilelink_obs.Telemetry.t -> unit
(** Snapshot per-rank lane-utilization gauges ([util.sm.rank<r>],
    [util.dma.rank<r>]) and interconnect byte/busy gauges into the
    telemetry registry, over the elapsed simulation horizon. *)
