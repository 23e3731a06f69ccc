(* Tensor-parallel MLP kernels built from tile-centric primitives.

   Two overlapped kernels (Figure 1 / Figure 4 of the paper):

   - [ag_gemm_program]: AllGather of the activation over M, overlapped
     with GEMM.  The communication role pulls remote shards tile by
     tile (SM-, DMA- or hybrid-bound per the design-space config) and
     signals producer channels; GEMM consumer tiles wait only for the
     rows they read.

   - [gemm_rs_program]: GEMM producing a partial [M, N] overlapped with
     a ring ReduceScatter consumer exactly as in Figure 4 — per-tile
     producer/consumer signals between GEMM and the reducer,
     peer-to-peer signals between ranks along the ring.

   Buffer layout conventions are documented on each builder; data
   actions implement real tensor semantics so the same programs verify
   numerically at small shapes. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type ag_gemm_spec = {
  m : int;          (* global rows (batch x seq) *)
  k : int;          (* hidden dim (gather width) *)
  n : int;          (* output columns per rank *)
  world_size : int;
}

let access = Instr.access

let ceil_div a b = (a + b - 1) / b

(* Split a task list between a DMA-bound prefix and an SM-bound
   remainder for hybrid bindings. *)
let split_fraction fraction tasks =
  let n = List.length tasks in
  let cut = int_of_float (fraction *. float_of_int n) in
  let rec take i = function
    | [] -> ([], [])
    | x :: rest ->
      if i = 0 then ([], x :: rest)
      else begin
        let front, back = take (i - 1) rest in
        (x :: front, back)
      end
  in
  take cut tasks

(* ------------------------------------------------------------------ *)
(* AllGather + GEMM                                                    *)
(* ------------------------------------------------------------------ *)

(* Buffers per rank:
   - "x_shard" [m / world, k]  local input shard
   - "x_full"  [m, k]          gather destination
   - "w"       [k, n]          local weight shard
   - "y"       [m, n]          local output *)

let ag_gemm_alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.world_size in
  let shard_rows = spec.m / spec.world_size in
  for rank = 0 to spec.world_size - 1 do
    Memory.bind memory ~rank ~name:"x_shard"
      (Tensor.random ~seed:(seed + rank)
         (Shape.of_list [ shard_rows; spec.k ]));
    Memory.bind memory ~rank ~name:"w"
      (Tensor.random ~seed:(seed + 1000 + rank)
         (Shape.of_list [ spec.k; spec.n ]));
    ignore
      (Memory.alloc memory ~rank ~name:"x_full"
         (Shape.of_list [ spec.m; spec.k ]));
    ignore
      (Memory.alloc memory ~rank ~name:"y" (Shape.of_list [ spec.m; spec.n ]))
  done;
  memory

let ag_gemm_reference memory spec ~rank =
  let shards =
    List.init spec.world_size (fun r ->
        Memory.find memory ~rank:r ~name:"x_shard")
  in
  Linalg.gemm (Tensor.concat_rows shards)
    (Memory.find memory ~rank ~name:"w")

let ag_gemm_program ?(k_chunks = 2) ?(transfer = `Pull)
    ~(config : Design_space.config) spec ~(spec_gpu : Spec.t) =
  let r = spec.world_size in
  if spec.m mod r <> 0 then invalid_arg "Mlp.ag_gemm: m not divisible";
  let comm_tm = fst config.Design_space.comm_tile in
  let compute_tm, compute_tn = config.Design_space.compute_tile in
  let shard_rows = spec.m / r in
  if shard_rows mod comm_tm <> 0 then
    invalid_arg "Mlp.ag_gemm: comm tile must divide the shard";
  let channels_per_rank = shard_rows / comm_tm in
  let mapping =
    Mapping.static ~extent:spec.m ~ranks:r ~channels_per_rank ~tile:comm_tm
      ()
  in
  let comm_grid =
    Tile.grid ~extent_m:spec.m ~extent_n:spec.k ~tile_m:comm_tm
      ~tile_n:spec.k
  in
  let compute_grid =
    Tile.grid ~extent_m:spec.m ~extent_n:spec.n ~tile_m:compute_tm
      ~tile_n:compute_tn
  in
  (* Everything rank-invariant is built once per program: one task per
     tile, labels, statements and data actions included, lowered and
     pipelined once.  Each rank only instantiates the tasks it runs, in
     its own tile order. *)
  let comm_table =
    (* Pull mode (Figure 3b left): the running rank fetches the tile
       into its own [x_full] and signals its local consumers.  Push
       mode (Figure 3b right): the tile's owner broadcasts it into
       every rank's [x_full] and notifies all remote consumers. *)
    let pull tid =
      let lo, hi = Mapping.shape_range mapping ~tid in
      {
        Block_channel.label = Printf.sprintf "ag[%d]" tid;
        stmts =
          [
            Primitive.Tile_pull_data
              {
                tid;
                src_buffer = "x_shard";
                src_view = `Shard;
                col = (0, spec.k);
                dst = access ~buffer:"x_full" ~row:(lo, hi) ~col:(0, spec.k) ();
                action = None;
              };
            Primitive.Producer_tile_notify { tid; mode = Primitive.P2p };
          ];
      }
    in
    let push tid =
      let glo, ghi = Mapping.shape_range mapping ~tid in
      let slo, shi = Mapping.src_shard_range mapping ~tid in
      let src = access ~buffer:"x_shard" ~row:(slo, shi) ~col:(0, spec.k) () in
      let dst = access ~buffer:"x_full" ~row:(glo, ghi) ~col:(0, spec.k) () in
      {
        Block_channel.label = Printf.sprintf "ag-push[%d]" tid;
        stmts =
          List.init r (fun dst_rank ->
              Primitive.Tile_push_data { src; dst_rank; dst })
          @ [
              Primitive.Producer_tile_notify
                { tid; mode = Primitive.Broadcast };
            ];
      }
    in
    Array.init (Tile.tile_count comm_grid)
      (match transfer with `Pull -> pull | `Push -> push)
  in
  (* --- computation: consumer GEMM tiles --- *)
  let compute_task tile =
    let lo, hi = Tile.rows compute_grid tile in
    let clo, chi = Tile.cols compute_grid tile in
    let label =
      Printf.sprintf "gemm[%d,%d]" tile.Tile.tid_m tile.Tile.tid_n
    in
    let action memory ~rank =
      let x = Memory.find memory ~rank ~name:"x_full" in
      let w = Memory.find memory ~rank ~name:"w" in
      let y = Memory.find memory ~rank ~name:"y" in
      Linalg.gemm_tile ~out:y ~rows:(lo, hi) ~cols:(clo, chi)
        ~block:config.Design_space.micro_block x w
    in
    let chunk = ceil_div spec.k k_chunks in
    (* The data action rides on the last *non-empty* chunk: with
       k < k_chunks the trailing chunks are empty. *)
    let live_chunks = ceil_div spec.k chunk in
    let k_loop =
      List.concat
        (List.init live_chunks (fun kc ->
             let klo = kc * chunk and khi = min spec.k ((kc + 1) * chunk) in
             if klo >= khi then []
             else
               [
                 Primitive.Load
                   (access ~buffer:"x_full" ~row:(lo, hi) ~col:(klo, khi) ());
                 Primitive.Load
                   (access ~buffer:"w" ~row:(klo, khi) ~col:(clo, chi) ());
                 Primitive.Compute
                   {
                     label = label ^ "k" ^ string_of_int kc;
                     cost =
                       Instr.Gemm_tile
                         { tm = hi - lo; tn = chi - clo; k = khi - klo };
                     reads =
                       [
                         access ~buffer:"x_full" ~row:(lo, hi) ~col:(klo, khi)
                           ();
                       ];
                     writes = [];
                     action =
                       (if kc = live_chunks - 1 then Some action else None);
                   };
               ]))
    in
    {
      Block_channel.label;
      stmts =
        Primitive.Consumer_tile_wait
          { lo; hi; buffer = "x_full"; col = (0, spec.k) }
        :: k_loop
        @ [
            Primitive.Store
              (access ~buffer:"y" ~row:(lo, hi) ~col:(clo, chi) ());
          ];
    }
  in
  let compute_table =
    Array.init (Tile.tile_count compute_grid) (fun tid ->
        compute_task (Tile.of_linear compute_grid tid))
  in
  let bc = Block_channel.symbolic ~world_size:r mapping in
  let comm_templates = Array.map (Block_channel.lower_task bc) comm_table in
  let compute_templates =
    Array.map
      (fun task ->
        Pipeline.pipeline_task ~stages:config.Design_space.stages
          (Block_channel.lower_task bc task))
      compute_table
  in
  let plans =
    Array.init r (fun rank ->
        let comm_tasks =
          let tiles =
            Tile.enumerate ~rank comm_grid config.Design_space.comm_order
          in
          let lower tile =
            Block_channel.instantiate_task ~rank
              comm_templates.(Tile.linearize comm_grid tile)
          in
          match transfer with
          | `Pull -> List.map lower tiles
          | `Push ->
            (* Only this rank's own shard tiles are pushed. *)
            List.filter_map
              (fun tile ->
                let tid = Tile.linearize comm_grid tile in
                if Mapping.rank_of mapping ~tid = rank then Some (lower tile)
                else None)
              tiles
        in
        let compute_tasks =
          List.map
            (fun tile ->
              Block_channel.instantiate_task ~rank
                compute_templates.(Tile.linearize compute_grid tile))
            (Tile.enumerate ~rank compute_grid
               config.Design_space.compute_order)
        in
        let comm_roles =
          match config.Design_space.binding with
          | Design_space.Comm_on_sm sms ->
            [
              {
                Program.role_name = "allgather-sm";
                resource = Program.Sm_partition sms;
                lane = Tilelink_sim.Trace.Comm_sm;
                tasks = comm_tasks;
              };
            ]
          | Design_space.Comm_on_dma ->
            [
              {
                Program.role_name = "allgather-dma";
                resource = Program.Dma_engines (min 2 spec_gpu.Spec.gpu.dma_channels);
                lane = Tilelink_sim.Trace.Dma;
                tasks = comm_tasks;
              };
            ]
          | Design_space.Comm_hybrid { dma_fraction; sms } ->
            let dma_tasks, sm_tasks = split_fraction dma_fraction comm_tasks in
            [
              {
                Program.role_name = "allgather-dma";
                resource = Program.Dma_engines (min 2 spec_gpu.Spec.gpu.dma_channels);
                lane = Tilelink_sim.Trace.Dma;
                tasks = dma_tasks;
              };
              {
                Program.role_name = "allgather-sm";
                resource = Program.Sm_partition sms;
                lane = Tilelink_sim.Trace.Comm_sm;
                tasks = sm_tasks;
              };
            ]
        in
        let comm_sms =
          match config.Design_space.binding with
          | Design_space.Comm_on_sm sms -> sms
          | Design_space.Comm_on_dma -> 0
          | Design_space.Comm_hybrid { sms; _ } -> sms
        in
        (* The compute partition takes whatever communication leaves. *)
        let compute_sms = max 1 (spec_gpu.Spec.gpu.num_sms - comm_sms) in
        comm_roles
        @ [
            {
              Program.role_name = "gemm";
              resource = Program.Sm_partition compute_sms;
              lane = Tilelink_sim.Trace.Compute_sm;
              tasks = compute_tasks;
            };
          ])
  in
  Program.create ~name:"ag_gemm" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:1 plans

(* ------------------------------------------------------------------ *)
(* GEMM + ring ReduceScatter (Figure 4)                                *)
(* ------------------------------------------------------------------ *)

type gemm_rs_spec = {
  rs_m : int;        (* global output rows (batch x seq) *)
  rs_k : int;        (* per-rank reduction dim (I / world) *)
  rs_n : int;        (* output width (hidden) *)
  rs_world : int;
}

(* Buffers per rank:
   - "act"       [m, k]        local activation shard (K-parallel)
   - "w2"        [k, n]        local weight shard
   - "gemm_out"  [m, n]        local partial product
   - "rs_buffer" [m, n]        ring receive buffer (globally indexed)
   - "rs_send"   [m, n]        staging for outgoing partial sums
   - "out"       [m / world, n] final reduced shard *)

let gemm_rs_alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.rs_world in
  for rank = 0 to spec.rs_world - 1 do
    Memory.bind memory ~rank ~name:"act"
      (Tensor.random ~seed:(seed + rank)
         (Shape.of_list [ spec.rs_m; spec.rs_k ]));
    Memory.bind memory ~rank ~name:"w2"
      (Tensor.random ~seed:(seed + 2000 + rank)
         (Shape.of_list [ spec.rs_k; spec.rs_n ]));
    List.iter
      (fun name ->
        ignore
          (Memory.alloc memory ~rank ~name
             (Shape.of_list [ spec.rs_m; spec.rs_n ])))
      [ "gemm_out"; "rs_buffer"; "rs_send" ];
    ignore
      (Memory.alloc memory ~rank ~name:"out"
         (Shape.of_list [ spec.rs_m / spec.rs_world; spec.rs_n ]))
  done;
  memory

let gemm_rs_reference memory spec ~rank =
  let partials =
    List.init spec.rs_world (fun r ->
        Linalg.gemm
          (Memory.find memory ~rank:r ~name:"act")
          (Memory.find memory ~rank:r ~name:"w2"))
  in
  let total = Tilelink_comm.Collective.reduce_data partials in
  let per = spec.rs_m / spec.rs_world in
  Tensor.row_slice total ~lo:(rank * per) ~hi:((rank + 1) * per)

let gemm_rs_program ~(config : Design_space.config) spec ~(spec_gpu : Spec.t)
    =
  let r = spec.rs_world in
  if spec.rs_m mod r <> 0 then invalid_arg "Mlp.gemm_rs: m not divisible";
  let m_per_rank = spec.rs_m / r in
  let gemm_tm, gemm_tn = config.Design_space.compute_tile in
  let rs_tm, rs_tn = config.Design_space.comm_tile in
  if m_per_rank mod gemm_tm <> 0 then
    invalid_arg "Mlp.gemm_rs: gemm tile must divide the rank shard";
  if m_per_rank mod rs_tm <> 0 || spec.rs_n mod rs_tn <> 0 then
    invalid_arg "Mlp.gemm_rs: rs tile must divide the shard";
  let gemm_grid =
    Tile.grid ~extent_m:spec.rs_m ~extent_n:spec.rs_n ~tile_m:gemm_tm
      ~tile_n:gemm_tn
  in
  (* Producer link: gemm_out rows guarded per gemm_tm rows, one notify
     per (row tile, column tile). *)
  let mapping =
    Mapping.static
      ~multiplicity:(Tile.tiles_n gemm_grid)
      ~extent:spec.rs_m ~ranks:r
      ~channels_per_rank:(m_per_rank / gemm_tm)
      ~tile:gemm_tm ()
  in
  let rs_grid =
    Tile.grid ~extent_m:m_per_rank ~extent_n:spec.rs_n ~tile_m:rs_tm
      ~tile_n:rs_tn
  in
  let rs_tiles = Tile.tile_count rs_grid in
  (* Ring invariant: one peer channel per (receiving stage, tile),
     signalled once and awaited at threshold 1 — never [threshold =
     stage] on a counter shared by all stages.  With more than one ring
     worker a sender can finish stage s+1 of a tile before stage s, and
     a shared counter would then release the receiver onto a segment
     that was never written. *)
  let ring_channel ~stage tile_key = (stage * rs_tiles) + tile_key in
  (* --- producer GEMM: one task per tile, built once --- *)
  let gemm_task tile =
    let lo, hi = Tile.rows gemm_grid tile in
    let clo, chi = Tile.cols gemm_grid tile in
    let tid_m = tile.Tile.tid_m in
    let action memory ~rank =
      let a = Memory.find memory ~rank ~name:"act" in
      let w = Memory.find memory ~rank ~name:"w2" in
      let g = Memory.find memory ~rank ~name:"gemm_out" in
      Linalg.gemm_tile ~out:g ~rows:(lo, hi) ~cols:(clo, chi)
        ~block:config.Design_space.micro_block a w
    in
    let label = Printf.sprintf "gemm[%d,%d]" tid_m tile.Tile.tid_n in
    {
      Block_channel.label;
      stmts =
        [
          Primitive.Load
            (access ~buffer:"act" ~row:(lo, hi) ~col:(0, spec.rs_k) ());
          Primitive.Load
            (access ~buffer:"w2" ~row:(0, spec.rs_k) ~col:(clo, chi) ());
          Primitive.Compute
            {
              label;
              cost =
                Instr.Gemm_tile { tm = hi - lo; tn = chi - clo; k = spec.rs_k };
              reads =
                [ access ~buffer:"act" ~row:(lo, hi) ~col:(0, spec.rs_k) () ];
              writes =
                [ access ~buffer:"gemm_out" ~row:(lo, hi) ~col:(clo, chi) () ];
              action = Some action;
            };
          Primitive.Store
            (access ~buffer:"gemm_out" ~row:(lo, hi) ~col:(clo, chi) ());
          Primitive.Producer_tile_notify { tid = tid_m; mode = Primitive.P2p };
        ];
    }
  in
  let gemm_table =
    Array.init (Tile.tile_count gemm_grid) (fun tid ->
        gemm_task (Tile.of_linear gemm_grid tid))
  in
  let stage_labels = Block_channel.stage_labels ~stages:r ~tiles:rs_tiles in
  let rs_labels = stage_labels (Printf.sprintf "rs[s%d,%d]") in
  let reduce_labels = stage_labels (Printf.sprintf "reduce[s%d,%d]") in
  let symbolic = Block_channel.symbolic ~world_size:r mapping in
  let gemm_templates =
    Array.map (Block_channel.lower_task symbolic) gemm_table
  in
  let bcs = Block_channel.per_rank ~world_size:r mapping in
  let plans =
    Array.init r (fun rank ->
        let bc = bcs.(rank) in
        let to_rank = (rank - 1 + r) mod r in
        let from_rank = (rank + 1) mod r in
        let gemm_tasks =
          List.map
            (fun tile ->
              Block_channel.instantiate_task ~rank
                gemm_templates.(Tile.linearize gemm_grid tile))
            (Tile.enumerate ~rank gemm_grid config.Design_space.compute_order)
        in
        (* --- consumer ring ReduceScatter (Figure 4 lines 11-26) --- *)
        let reduce_stmts ~stage tile =
          let seg = (rank + stage + 1) mod r in
          let llo, lhi = Tile.rows rs_grid tile in
          let clo, chi = Tile.cols rs_grid tile in
          let glo = (seg * m_per_rank) + llo and ghi = (seg * m_per_rank) + lhi in
          let tile_key = Tile.linearize rs_grid tile in
          let last = stage = r - 1 in
          let action memory ~rank =
            let g = Memory.find memory ~rank ~name:"gemm_out" in
            let data =
              Tensor.block g ~row_lo:glo ~row_hi:ghi ~col_lo:clo ~col_hi:chi
            in
            let data =
              if stage = 0 then data
              else
                Tensor.add data
                  (Tensor.block
                     (Memory.find memory ~rank ~name:"rs_buffer")
                     ~row_lo:glo ~row_hi:ghi ~col_lo:clo ~col_hi:chi)
            in
            if last then
              Tensor.set_block
                (Memory.find memory ~rank ~name:"out")
                ~row_lo:llo ~col_lo:clo data
            else
              Tensor.set_block
                (Memory.find memory ~rank ~name:"rs_send")
                ~row_lo:glo ~col_lo:clo data
          in
          let wait_peer =
            if stage = 0 then []
            else
              [
                Primitive.Peer_tile_wait
                  {
                    tile_key = ring_channel ~stage tile_key;
                    src = from_rank;
                    threshold = 1;
                    guards =
                      [
                        access ~buffer:"rs_buffer" ~row:(glo, ghi)
                          ~col:(clo, chi) ();
                      ];
                  };
                Primitive.Load
                  (access ~buffer:"rs_buffer" ~row:(glo, ghi) ~col:(clo, chi)
                     ());
              ]
          in
          let tail =
            if last then
              [
                Primitive.Store
                  (access ~buffer:"out" ~row:(llo, lhi) ~col:(clo, chi) ());
              ]
            else
              [
                Primitive.Tile_push_data
                  {
                    src =
                      access ~buffer:"rs_send" ~row:(glo, ghi) ~col:(clo, chi)
                        ();
                    dst_rank = to_rank;
                    dst =
                      access ~buffer:"rs_buffer" ~row:(glo, ghi)
                        ~col:(clo, chi) ();
                  };
                Primitive.Peer_tile_notify
                  {
                    tile_key = ring_channel ~stage:(stage + 1) tile_key;
                    dst = to_rank;
                    amount = 1;
                    releases =
                      [
                        access ~rank:to_rank ~buffer:"rs_buffer"
                          ~row:(glo, ghi) ~col:(clo, chi) ();
                      ];
                  };
              ]
          in
          [
            Primitive.Consumer_tile_wait
              { lo = glo; hi = ghi; buffer = "gemm_out"; col = (clo, chi) };
            Primitive.Load
              (access ~buffer:"gemm_out" ~row:(glo, ghi) ~col:(clo, chi) ());
          ]
          @ wait_peer
          @ [
              Primitive.Compute
                {
                  label = reduce_labels.(stage).(tile_key);
                  cost =
                    Instr.Memory_tile
                      {
                        rows = lhi - llo;
                        cols = chi - clo;
                        passes = (if stage = 0 then 2 else 3);
                      };
                  reads =
                    [
                      access ~buffer:"gemm_out" ~row:(glo, ghi) ~col:(clo, chi)
                        ();
                    ];
                  writes =
                    [
                      access
                        ~buffer:(if last then "out" else "rs_send")
                        ~row:(if last then (llo, lhi) else (glo, ghi))
                        ~col:(clo, chi) ();
                    ];
                  action = Some action;
                };
            ]
          @ tail
        in
        let rs_task ~stage tile =
          {
            Program.label = rs_labels.(stage).(Tile.linearize rs_grid tile);
            instrs = Block_channel.lower bc (reduce_stmts ~stage tile);
          }
        in
        let stage_tasks stage =
          List.map (rs_task ~stage) (Tile.enumerate ~rank rs_grid Tile.Row_major)
        in
        let rs_tasks = List.concat (List.init r stage_tasks) in
        (* Resource binding for the RS consumer. *)
        let comm_roles, comm_sms =
          match config.Design_space.binding with
          | Design_space.Comm_on_sm sms ->
            ( [
                {
                  Program.role_name = "ring-rs-sm";
                  resource = Program.Sm_partition sms;
                  lane = Tilelink_sim.Trace.Comm_sm;
                  tasks = rs_tasks;
                };
              ],
              sms )
          | Design_space.Comm_on_dma ->
            (* Whole consumer chain driven from the copy-engine side. *)
            ( [
                {
                  Program.role_name = "ring-rs-dma";
                  resource = Program.Dma_engines (min 2 spec_gpu.Spec.gpu.dma_channels);
                  lane = Tilelink_sim.Trace.Dma;
                  tasks = rs_tasks;
                };
              ],
              0 )
          | Design_space.Comm_hybrid { dma_fraction = _; sms } ->
            (* Hybrid: reduction tasks stay on SMs; the bulk pushes are
               already Copy instructions inside the same tasks, so the
               hybrid split here gives the reducer a small SM partition
               while pushes ride the NVLink servers (DMA-like).  This
               matches the paper's "scatter on DMA + reduce on SM". *)
            ( [
                {
                  Program.role_name = "ring-rs-hybrid";
                  resource = Program.Sm_partition sms;
                  lane = Tilelink_sim.Trace.Comm_sm;
                  tasks = rs_tasks;
                };
              ],
              sms )
        in
        let gemm_sms = max 1 (spec_gpu.Spec.gpu.num_sms - comm_sms) in
        {
          Program.role_name = "gemm";
          resource = Program.Sm_partition gemm_sms;
          lane = Tilelink_sim.Trace.Compute_sm;
          tasks = gemm_tasks;
        }
        :: comm_roles)
  in
  Program.create ~name:"gemm_rs" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:(rs_tiles * r) plans
