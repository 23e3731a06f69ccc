(* The overlap building blocks the kernel builders share: the AllGather
   producer (Figure 3b), the k-chunked GEMM consumer and the ring
   ReduceScatter consumer (Figure 4).  [Mlp], [Moe] and [Planner]
   compose their programs from these; each block is written here once.

   Everything rank-free is built, lowered and labelled once per
   program; a rank only instantiates the templates it runs.  The ring
   ReduceScatter stage is the exception: its statements name the rank's
   ring neighbours and segments, so it is lowered per rank. *)

open Tilelink_tensor

let access = Instr.access
let ceil_div a b = (a + b - 1) / b

let dma_engines (spec_gpu : Tilelink_machine.Spec.t) =
  Program.Dma_engines (min 2 spec_gpu.Tilelink_machine.Spec.gpu.dma_channels)

let tile_tasks templates grid ~rank order =
  List.map
    (fun tile ->
      Block_channel.instantiate_task ~rank
        templates.(Tile.linearize grid tile))
    (Tile.enumerate ~rank grid order)

(* ------------------------------------------------------------------ *)
(* AllGather producer                                                  *)
(* ------------------------------------------------------------------ *)

type transfer = [ `Pull | `Push ]

type gather = {
  mapping : Mapping.t;
  grid : Tile.grid;
  transfer : transfer;
  templates : Program.task array;
}

(* One task per gather tile, indexed by tile id.  Pull mode (Figure 3b
   left): the running rank fetches the tile into its own gathered
   buffer and signals its local consumers.  Push mode (Figure 3b
   right): the tile's owner broadcasts it into every rank's gathered
   buffer and notifies all of them. *)
let gather bc ~name ~transfer ~mapping ~grid ~shard ~gathered =
  let cols = (0, grid.Tile.extent_n) in
  let pull tid =
    let lo, hi = Mapping.shape_range mapping ~tid in
    {
      Block_channel.label = Printf.sprintf "%s[%d]" name tid;
      stmts =
        [
          Primitive.Tile_pull_data
            {
              tid;
              src_buffer = shard;
              src_view = `Shard;
              col = cols;
              dst = access ~buffer:gathered ~row:(lo, hi) ~col:cols ();
              action = None;
            };
          Primitive.Producer_tile_notify { tid; mode = Primitive.P2p };
        ];
    }
  in
  let push tid =
    let glo, ghi = Mapping.shape_range mapping ~tid in
    let slo, shi = Mapping.src_shard_range mapping ~tid in
    let src = access ~buffer:shard ~row:(slo, shi) ~col:cols () in
    let dst = access ~buffer:gathered ~row:(glo, ghi) ~col:cols () in
    {
      Block_channel.label = Printf.sprintf "%s-push[%d]" name tid;
      stmts =
        List.init (Mapping.ranks mapping) (fun dst_rank ->
            Primitive.Tile_push_data { src; dst_rank; dst })
        @ [
            Primitive.Producer_tile_notify { tid; mode = Primitive.Broadcast };
          ];
    }
  in
  let task = match transfer with `Pull -> pull | `Push -> push in
  {
    mapping;
    grid;
    transfer;
    templates =
      Array.init (Tile.tile_count grid) (fun tid ->
          Block_channel.lower_task bc (task tid));
  }

(* Pull runs every tile in [order]; push runs only the rank's own shard
   tiles, in the same order. *)
let gather_tasks g ~rank order =
  match g.transfer with
  | `Pull -> tile_tasks g.templates g.grid ~rank order
  | `Push ->
    List.filter_map
      (fun tile ->
        let tid = Tile.linearize g.grid tile in
        if Mapping.rank_of g.mapping ~tid = rank then
          Some (Block_channel.instantiate_task ~rank g.templates.(tid))
        else None)
      (Tile.enumerate ~rank g.grid order)

(* Split a task list between a DMA-bound prefix and an SM-bound
   remainder for hybrid bindings. *)
let split_fraction fraction tasks =
  let cut = int_of_float (fraction *. float_of_int (List.length tasks)) in
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

let gather_roles ~name ~spec_gpu binding tasks =
  let sm_role sms tasks =
    {
      Program.role_name = name ^ "-sm";
      resource = Program.Sm_partition sms;
      lane = Tilelink_sim.Trace.Comm_sm;
      tasks;
    }
  in
  let dma_role tasks =
    {
      Program.role_name = name ^ "-dma";
      resource = dma_engines spec_gpu;
      lane = Tilelink_sim.Trace.Dma;
      tasks;
    }
  in
  let roles, comm_sms =
    match binding with
    | Design_space.Comm_on_sm sms -> ([ sm_role sms tasks ], sms)
    | Design_space.Comm_on_dma -> ([ dma_role tasks ], 0)
    | Design_space.Comm_hybrid { dma_fraction; sms } ->
      let dma_tasks, sm_tasks = split_fraction dma_fraction tasks in
      ([ dma_role dma_tasks; sm_role sms sm_tasks ], sms)
  in
  (* The compute partition takes whatever communication leaves. *)
  (roles, max 1 (spec_gpu.Tilelink_machine.Spec.gpu.num_sms - comm_sms))

(* ------------------------------------------------------------------ *)
(* Row-range consumers of the gathered buffer                          *)
(* ------------------------------------------------------------------ *)

let chunk_ranges ~extent ~chunks =
  if chunks < 1 then invalid_arg "Overlap.chunk_ranges: chunks must be >= 1";
  let chunk = ceil_div extent chunks in
  List.init (ceil_div extent chunk) (fun kc ->
      (kc * chunk, min extent ((kc + 1) * chunk)))

let row_consumer ~label ~gathered ~k ~out ~rows:(lo, hi) ~cols body =
  {
    Block_channel.label;
    stmts =
      Primitive.Consumer_tile_wait { lo; hi; buffer = gathered; col = (0, k) }
      :: body
      @ [ Primitive.Store (access ~buffer:out ~row:(lo, hi) ~col:cols ()) ];
  }

let gemm_chunks ~label ~gathered ~weights ~out ~k ~chunks ~micro_block
    ~rows:(lo, hi) ~cols:(clo, chi) =
  let action memory ~rank =
    let x = Memory.find memory ~rank ~name:gathered in
    let w = Memory.find memory ~rank ~name:weights in
    let y = Memory.find memory ~rank ~name:out in
    Linalg.gemm_tile ~out:y ~rows:(lo, hi) ~cols:(clo, chi) ~block:micro_block
      x w
  in
  let ranges = chunk_ranges ~extent:k ~chunks in
  let last = List.length ranges - 1 in
  List.concat
    (List.mapi
       (fun kc (klo, khi) ->
         let x = access ~buffer:gathered ~row:(lo, hi) ~col:(klo, khi) () in
         [
           Primitive.Load x;
           Primitive.Load
             (access ~buffer:weights ~row:(klo, khi) ~col:(clo, chi) ());
           Primitive.Compute
             {
               label = label ^ "k" ^ string_of_int kc;
               cost =
                 Instr.Gemm_tile
                   { tm = hi - lo; tn = chi - clo; k = khi - klo };
               reads = [ x ];
               writes = [];
               action = (if kc = last then Some action else None);
             };
         ])
       ranges)

(* ------------------------------------------------------------------ *)
(* Ring ReduceScatter (Figure 4 lines 11-26)                           *)
(* ------------------------------------------------------------------ *)

(* Buffers per rank: [src] [m, n] holds the rank's partial, "rs_buffer"
   receives the neighbour's running sum, "rs_send" stages the outgoing
   one, and "out" [m / world, n] gets the reduced shard.  At stage s
   rank r reduces segment (r + s + 1) mod world and pushes the sum to
   rank r - 1; the last stage lands the rank's own segment in "out".

   Ring invariant: one peer channel per (receiving stage, tile),
   signalled once and awaited at threshold 1 — never [threshold =
   stage] on a counter shared by all stages.  With more than one ring
   worker a sender can finish stage s+1 of a tile before stage s, and a
   shared counter would then release the receiver onto a segment that
   was never written. *)
let ring_reduce_scatter ~world ~grid ~src ~reduce ~load_received =
  let tiles = Tile.tile_count grid in
  let m_per_rank = grid.Tile.extent_m in
  let ring_channel ~stage tile_key = (stage * tiles) + tile_key in
  let stage_labels = Block_channel.stage_labels ~stages:world ~tiles in
  let rs_labels = stage_labels (Printf.sprintf "rs[s%d,%d]") in
  let reduce_labels = stage_labels (Printf.sprintf "%s[s%d,%d]" reduce) in
  fun bc ~rank ->
    let to_rank = (rank - 1 + world) mod world in
    let from_rank = (rank + 1) mod world in
    let stage_stmts ~stage tile =
      let seg = (rank + stage + 1) mod world in
      let llo, lhi = Tile.rows grid tile in
      let clo, chi = Tile.cols grid tile in
      let glo = (seg * m_per_rank) + llo and ghi = (seg * m_per_rank) + lhi in
      let tile_key = Tile.linearize grid tile in
      let last = stage = world - 1 in
      let at ?rank buffer row = access ?rank ~buffer ~row ~col:(clo, chi) () in
      let action memory ~rank =
        let block name =
          Tensor.block
            (Memory.find memory ~rank ~name)
            ~row_lo:glo ~row_hi:ghi ~col_lo:clo ~col_hi:chi
        in
        let data = block src in
        let data =
          if stage = 0 then data else Tensor.add data (block "rs_buffer")
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
          Primitive.Peer_tile_wait
            {
              tile_key = ring_channel ~stage tile_key;
              src = from_rank;
              threshold = 1;
              guards = [ at "rs_buffer" (glo, ghi) ];
            }
          ::
          (if load_received then
             [ Primitive.Load (at "rs_buffer" (glo, ghi)) ]
           else [])
      in
      let dst = if last then at "out" (llo, lhi) else at "rs_send" (glo, ghi) in
      let tail =
        if last then [ Primitive.Store dst ]
        else
          [
            Primitive.Tile_push_data
              {
                src = dst;
                dst_rank = to_rank;
                dst = at "rs_buffer" (glo, ghi);
              };
            Primitive.Peer_tile_notify
              {
                tile_key = ring_channel ~stage:(stage + 1) tile_key;
                dst = to_rank;
                amount = 1;
                releases = [ at ~rank:to_rank "rs_buffer" (glo, ghi) ];
              };
          ]
      in
      [
        Primitive.Consumer_tile_wait
          { lo = glo; hi = ghi; buffer = src; col = (clo, chi) };
        Primitive.Load (at src (glo, ghi));
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
              reads = [ at src (glo, ghi) ];
              writes = [ dst ];
              action = Some action;
            };
        ]
      @ tail
    in
    let tiles_in_order = Tile.enumerate ~rank grid Tile.Row_major in
    List.concat
      (List.init world (fun stage ->
           List.map
             (fun tile ->
               {
                 Program.label = rs_labels.(stage).(Tile.linearize grid tile);
                 instrs = Block_channel.lower bc (stage_stmts ~stage tile);
               })
             tiles_in_order))
