(* A simulated GPU cluster: per-rank resources plus the interconnect.

   Each rank owns an SM pool and a DMA channel pool; each rank also has
   an NVLink egress bandwidth server (NVSwitch gives independent lanes,
   so egress is the binding constraint) and each node has a NIC for
   inter-node traffic. *)

type rank = {
  id : int;
  node : int;
  sms : Tilelink_sim.Resource.t;
  dma : Tilelink_sim.Resource.t;
  nvlink_egress : Tilelink_sim.Bandwidth.t;
}

(* A machine-level disturbance: time-varying link/NIC rate multipliers,
   per-rank compute slowdowns, and copy-engine stall injections.  All
   functions must be pure in simulation time so that the same seed
   replays the same run. *)
type disturbance = {
  link_rate : rank:int -> now:float -> float;
  nic_rate : node:int -> now:float -> float;
  compute : rank:int -> now:float -> float;
  copy_stall_us : rank:int -> now:float -> float;
}

type t = {
  spec : Spec.t;
  world_size : int;
  engine : Tilelink_sim.Engine.t;
  trace : Tilelink_sim.Trace.t;
  ranks : rank array;
  nics : Tilelink_sim.Bandwidth.t array; (* one per node *)
  mutable disturbance : disturbance option;
  (* Topology-derived base factors.  [base_compute] is a per-rank
     duration multiplier baked in by a heterogeneous topology (all 1.0
     otherwise); [base_nic_tax] is the co-tenant background-traffic
     rate multiplier installed on NICs at creation.  Disturbances
     compose multiplicatively on top of both. *)
  topology : Topology.t option;
  base_compute : float array;
  base_nic_tax : (island:int -> now:float -> float) option;
  (* Rank liveness for crash-fault injection.  [alive] flips false when
     a rank crashes; [recovered] flips true once a failover coordinator
     has re-hosted the rank's symmetric memory on the survivors, at
     which point transfers touching the rank succeed again (they read
     the recovered shard). *)
  alive : bool array;
  recovered : bool array;
}

(* The co-tenant tax is the *base* throttle on a NIC: present with no
   disturbance installed, and multiplied into the disturbance's
   nic_rate when one is. *)
let install_base_nic_throttles ~base_nic_tax nics =
  match base_nic_tax with
  | None -> ()
  | Some tax ->
    Array.iteri
      (fun node nic ->
        Tilelink_sim.Bandwidth.set_throttle nic (fun ~now ->
            tax ~island:node ~now))
      nics

let create ?(trace_enabled = false) ?topology (spec : Spec.t) ~world_size =
  if world_size <= 0 then invalid_arg "Cluster.create: world_size";
  let engine = Tilelink_sim.Engine.create () in
  let trace = Tilelink_sim.Trace.create ~enabled:trace_enabled () in
  let layout =
    Option.map (fun topo -> Topology.layout topo ~world_size) topology
  in
  let node_of id =
    match layout with
    | None -> id / spec.gpus_per_node
    | Some l -> Topology.island_of l id
  in
  let num_nodes =
    match layout with
    | None -> Shape_math.ceil_div world_size spec.gpus_per_node
    | Some l -> Topology.islands l
  in
  let ranks_per_node =
    match layout with
    | None -> spec.gpus_per_node
    | Some l -> Topology.ranks_per_island l.Topology.l_topology
  in
  let nics =
    Array.init num_nodes (fun node ->
        (* One stream: the NIC's aggregate rate is shared, so transfers
           serialize at full rate rather than multiplying throughput. *)
        Tilelink_sim.Bandwidth.create engine
          ~name:(Printf.sprintf "nic%d" node)
          ~gbps:(spec.interconnect.nic_gbps *. float_of_int ranks_per_node)
          ~latency_us:spec.interconnect.nic_latency ~streams:1 ())
  in
  let link_scale id =
    match layout with None -> 1.0 | Some l -> l.Topology.l_link_scale.(id)
  in
  let ranks =
    Array.init world_size (fun id ->
        {
          id;
          node = node_of id;
          sms =
            Tilelink_sim.Resource.create engine
              ~name:(Printf.sprintf "sm%d" id)
              ~capacity:spec.gpu.num_sms;
          dma =
            Tilelink_sim.Resource.create engine
              ~name:(Printf.sprintf "dma%d" id)
              ~capacity:spec.gpu.dma_channels;
          nvlink_egress =
            (* Egress bandwidth is shared across all outgoing copies of
               a GPU: one stream serializes them at the full rate.  A
               heterogeneous topology narrows the attach statically. *)
            Tilelink_sim.Bandwidth.create engine
              ~name:(Printf.sprintf "nvlink%d" id)
              ~gbps:(spec.interconnect.nvlink_gbps *. link_scale id)
              ~latency_us:spec.interconnect.nvlink_latency ~streams:1 ();
        })
  in
  let base_compute =
    match layout with
    | None -> Array.make world_size 1.0
    | Some l -> Array.copy l.Topology.l_compute_scale
  in
  let base_nic_tax =
    match layout with None -> None | Some l -> l.Topology.l_nic_tax
  in
  install_base_nic_throttles ~base_nic_tax nics;
  {
    spec;
    world_size;
    engine;
    trace;
    ranks;
    nics;
    disturbance = None;
    topology;
    base_compute;
    base_nic_tax;
    alive = Array.make world_size true;
    recovered = Array.make world_size false;
  }

(* Installing a disturbance also wires the bandwidth throttles so the
   link servers themselves sample the degradation at admission time.
   The topology's base NIC tax composes multiplicatively. *)
let set_disturbance t d =
  t.disturbance <- Some d;
  Array.iter
    (fun r ->
      Tilelink_sim.Bandwidth.set_throttle r.nvlink_egress (fun ~now ->
          d.link_rate ~rank:r.id ~now))
    t.ranks;
  Array.iteri
    (fun node nic ->
      let base =
        match t.base_nic_tax with
        | None -> fun ~now:_ -> 1.0
        | Some tax -> fun ~now -> tax ~island:node ~now
      in
      Tilelink_sim.Bandwidth.set_throttle nic (fun ~now ->
          d.nic_rate ~node ~now *. base ~now))
    t.nics

let clear_disturbance t =
  t.disturbance <- None;
  Array.iter
    (fun r -> Tilelink_sim.Bandwidth.clear_throttle r.nvlink_egress)
    t.ranks;
  (* Restore the topology's base NIC tax rather than running nominal. *)
  Array.iter Tilelink_sim.Bandwidth.clear_throttle t.nics;
  install_base_nic_throttles ~base_nic_tax:t.base_nic_tax t.nics

let check_rank_id t rank_id label =
  if rank_id < 0 || rank_id >= t.world_size then
    invalid_arg (Printf.sprintf "Cluster.%s: rank %d out of range" label rank_id)

let kill_rank t ~rank_id =
  check_rank_id t rank_id "kill_rank";
  t.alive.(rank_id) <- false

let is_alive t ~rank_id =
  check_rank_id t rank_id "is_alive";
  t.alive.(rank_id)

let mark_recovered t ~rank_id =
  check_rank_id t rank_id "mark_recovered";
  t.recovered.(rank_id) <- true

let is_recovered t ~rank_id =
  check_rank_id t rank_id "is_recovered";
  t.recovered.(rank_id)

let alive_ranks t =
  List.filter (fun r -> t.alive.(r)) (List.init t.world_size Fun.id)

let dead_ranks t =
  List.filter (fun r -> not t.alive.(r)) (List.init t.world_size Fun.id)

(* A transfer endpoint is unreachable while its rank is down and nobody
   has re-hosted its memory yet. *)
let unreachable t r = (not t.alive.(r)) && not t.recovered.(r)

let spec t = t.spec
let world_size t = t.world_size
let engine t = t.engine
let trace t = t.trace
let rank t id = t.ranks.(id)
let now t = Tilelink_sim.Engine.now t.engine

let same_node t src dst = t.ranks.(src).node = t.ranks.(dst).node

(* Compute-straggler multiplier for [rank_id] at the current instant:
   the topology's static heterogeneity factor times any installed
   disturbance.  1.0 on a homogeneous cluster with no disturbance.
   Sampled once per kernel issue by the runtime. *)
let compute_scale t ~rank_id =
  let base = t.base_compute.(rank_id) in
  match t.disturbance with
  | None -> base
  | Some d ->
    Float.max 1e-6
      (base *. d.compute ~rank:rank_id ~now:(Tilelink_sim.Engine.now t.engine))

let topology t = t.topology
let island_of t ~rank_id = t.ranks.(rank_id).node

(* One-line self-description for logs and --json artifacts: machine,
   world, node count, interconnect — and the topology when one is
   installed. *)
let describe t =
  let per_node =
    match t.topology with
    | None -> t.spec.gpus_per_node
    | Some topo -> Topology.ranks_per_island topo
  in
  let base =
    Printf.sprintf "%s, world %d: %d node%s x %d GPUs, NIC %.0f GB/s @%.1fus"
      t.spec.gpu.gpu_name t.world_size (Array.length t.nics)
      (if Array.length t.nics = 1 then "" else "s")
      per_node t.spec.interconnect.nic_gbps t.spec.interconnect.nic_latency
  in
  match t.topology with
  | None -> base
  | Some topo -> base ^ " [" ^ Topology.describe topo ^ "]"

let copy_stall_us t ~rank_id =
  match t.disturbance with
  | None -> 0.0
  | Some d ->
    Float.max 0.0 (d.copy_stall_us ~rank:rank_id ~now:(Tilelink_sim.Engine.now t.engine))

let num_nodes t = Array.length t.nics

let nic_bytes t ~node =
  if node < 0 || node >= num_nodes t then
    invalid_arg "Cluster.nic_bytes: node out of range";
  Tilelink_sim.Bandwidth.bytes_moved t.nics.(node)

let nvlink_bytes t ~rank_id =
  Tilelink_sim.Bandwidth.bytes_moved t.ranks.(rank_id).nvlink_egress

(* Intra-node traffic binds on the source's NVLink egress; inter-node
   traffic binds on both nodes' NICs (modeled as the source node NIC,
   the bottleneck in practice). *)
let link t ~src ~dst =
  if same_node t src dst then t.ranks.(src).nvlink_egress
  else t.nics.(t.ranks.(src).node)

let transfer_duration t ~src ~dst ~bytes =
  if src = dst then 0.0
  else if same_node t src dst then
    Tilelink_sim.Bandwidth.duration t.ranks.(src).nvlink_egress ~bytes
  else Tilelink_sim.Bandwidth.duration t.nics.(t.ranks.(src).node) ~bytes

let transfer_ok t ~src ~dst =
  src = dst || not (unreachable t src || unreachable t dst)

(* Snapshot per-rank lane utilization into the metrics registry:
   fraction of each SM/DMA pool that was busy over the elapsed horizon,
   plus interconnect byte counts and busy time.  Called after a run so
   the gauges describe the whole simulation. *)
let record_utilization t (telemetry : Tilelink_obs.Telemetry.t) =
  let horizon = now t in
  let m = Tilelink_obs.Telemetry.metrics telemetry in
  if horizon > 0.0 && Tilelink_obs.Metrics.enabled m then begin
    let gauge fmt = Printf.ksprintf (Tilelink_obs.Metrics.set_gauge m) fmt in
    Array.iter
      (fun r ->
        gauge "util.sm.rank%d" r.id
          (Tilelink_sim.Resource.utilization r.sms ~horizon);
        gauge "util.dma.rank%d" r.id
          (Tilelink_sim.Resource.utilization r.dma ~horizon);
        gauge "nvlink.bytes.rank%d" r.id
          (Tilelink_sim.Bandwidth.bytes_moved r.nvlink_egress);
        gauge "nvlink.busy_us.rank%d" r.id
          (Tilelink_sim.Bandwidth.busy_time r.nvlink_egress))
      t.ranks;
    Array.iteri
      (fun node nic ->
        gauge "nic.bytes.node%d" node (Tilelink_sim.Bandwidth.bytes_moved nic);
        gauge "nic.busy_us.node%d" node (Tilelink_sim.Bandwidth.busy_time nic))
      t.nics
  end
