(* Expert-parallel MoE with overlapped All2All dispatch and combine.

   The paper evaluates tensor-parallel MoE; expert parallelism is the
   other production sharding (experts live on different ranks, tokens
   travel).  It exercises the one collective pattern the TP kernels do
   not — All2All — and shows the primitives cover it:

     dispatch:  every rank pushes, for each remote expert-owner, the
                block of its token-slots routed there (tile_push_data +
                per-segment arrival signals);
     expert FFN: segment-aligned GroupGEMM tiles start as soon as their
                segment has landed (dynamic mapping over the receive
                layout), compute x*W1 -> SiLU -> *W2;
     combine:   finished segments fly back to their token owners, which
                wait per expert and apply gate-weighted top-k reduction.

   Layout.  A *segment* is the (expert, source-rank) block of the
   receive buffer: rows are token-slots of rank [src] routed to expert
   [e], ordered by (token, slot).  Every rank derives the same layout
   from the shared routing, so offsets are consistent without extra
   metadata exchange. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  tokens : int;        (* M, sharded M/R per rank *)
  hidden : int;        (* H *)
  intermediate : int;  (* I, full per expert (no TP split) *)
  experts : int;       (* E, sharded E/R per rank *)
  topk : int;
  world_size : int;
}

let access = Instr.access

let tokens_per_rank spec = spec.tokens / spec.world_size
let experts_per_rank spec = spec.experts / spec.world_size
let expert_owner spec e = e / experts_per_rank spec
let token_owner spec t = t / tokens_per_rank spec

let routing spec ~seed =
  Routing.random ~seed ~num_tokens:spec.tokens ~num_experts:spec.experts
    ~topk:spec.topk

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

type segment = {
  expert : int;       (* global expert id *)
  src : int;          (* rank owning the tokens *)
  entries : (int * int) list;  (* (token, slot) in (token, slot) order *)
  recv_lo : int;      (* row offset in the owner's receive buffer *)
}

type layout = {
  (* Segments of each expert-owner rank, ordered (local expert, src). *)
  segments_of_rank : segment list array;
  recv_rows : int array;  (* receive-buffer height per rank *)
}

let build_layout spec route =
  let r = spec.world_size in
  let segments_of_rank = Array.make r [] in
  let recv_rows = Array.make r 0 in
  for owner = 0 to r - 1 do
    let segments = ref [] in
    let offset = ref 0 in
    for e_local = 0 to experts_per_rank spec - 1 do
      let e = (owner * experts_per_rank spec) + e_local in
      for src = 0 to r - 1 do
        let entries =
          List.filter
            (fun (token, _slot) -> token_owner spec token = src)
            (Routing.tokens_of_expert route e)
        in
        segments := { expert = e; src; entries; recv_lo = !offset } :: !segments;
        offset := !offset + List.length entries
      done
    done;
    segments_of_rank.(owner) <- List.rev !segments;
    recv_rows.(owner) <- !offset
  done;
  { segments_of_rank; recv_rows }

(* Position of a (token, slot) pair inside its owner's combine buffer:
   local token index * topk + slot. *)
let combine_pos spec (token, slot) =
  ((token mod tokens_per_rank spec) * spec.topk) + slot

(* ------------------------------------------------------------------ *)
(* Memory + reference                                                  *)
(* ------------------------------------------------------------------ *)

(* Buffers per rank:
   - "tok_shard"   [M/R, H]           local tokens
   - "w1"          [(E/R)*H, I]       local experts' up projections
   - "w2"          [(E/R)*I, H]       local experts' down projections
   - "recv_buf"    [recv_rows, H]     dispatched token-slots
   - "expert_out"  [recv_rows, H]     FFN results per received row
   - "combine_buf" [(M/R)*topk, H]    results returned to token owners
   - "out"         [M/R, H]           gate-weighted top-k sum *)

let alloc spec route ~seed =
  let layout = build_layout spec route in
  let memory = Memory.create ~world_size:spec.world_size in
  let epr = experts_per_rank spec in
  for rank = 0 to spec.world_size - 1 do
    Memory.bind memory ~rank ~name:"tok_shard"
      (Tensor.random ~seed:(seed + rank)
         (Shape.of_list [ tokens_per_rank spec; spec.hidden ]));
    Memory.bind memory ~rank ~name:"w1"
      (Tensor.random ~seed:(seed + 600 + rank)
         (Shape.of_list [ epr * spec.hidden; spec.intermediate ]));
    Memory.bind memory ~rank ~name:"w2"
      (Tensor.random ~seed:(seed + 700 + rank)
         (Shape.of_list [ epr * spec.intermediate; spec.hidden ]));
    List.iter
      (fun name ->
        ignore
          (Memory.alloc memory ~rank ~name
             (Shape.of_list [ max 1 layout.recv_rows.(rank); spec.hidden ])))
      [ "recv_buf"; "expert_out" ];
    ignore
      (Memory.alloc memory ~rank ~name:"combine_buf"
         (Shape.of_list [ tokens_per_rank spec * spec.topk; spec.hidden ]));
    ignore
      (Memory.alloc memory ~rank ~name:"out"
         (Shape.of_list [ tokens_per_rank spec; spec.hidden ]))
  done;
  (memory, layout)

(* FFN of one expert applied to a row block: silu(x W1) W2. *)
let expert_ffn memory ~owner ~e_local rows spec =
  let w1 =
    Tensor.row_slice
      (Memory.find memory ~rank:owner ~name:"w1")
      ~lo:(e_local * spec.hidden)
      ~hi:((e_local + 1) * spec.hidden)
  in
  let w2 =
    Tensor.row_slice
      (Memory.find memory ~rank:owner ~name:"w2")
      ~lo:(e_local * spec.intermediate)
      ~hi:((e_local + 1) * spec.intermediate)
  in
  let mid = Tensor.map Nn.silu (Linalg.gemm rows w1) in
  Linalg.gemm mid w2

let reference memory spec route ~rank =
  let out =
    Tensor.zeros (Shape.of_list [ tokens_per_rank spec; spec.hidden ])
  in
  for local_t = 0 to tokens_per_rank spec - 1 do
    let token = (rank * tokens_per_rank spec) + local_t in
    let x =
      Tensor.row_slice
        (Memory.find memory ~rank ~name:"tok_shard")
        ~lo:local_t ~hi:(local_t + 1)
    in
    let experts = Routing.experts_of_token route token in
    let weights = Routing.weights_of_token route token in
    Array.iteri
      (fun slot e ->
        let owner = expert_owner spec e in
        let e_local = e mod experts_per_rank spec in
        let y = expert_ffn memory ~owner ~e_local x spec in
        Tensor.add_row_slice out ~lo:local_t
          (Tensor.scale weights.(slot) y))
      experts;
    ignore weights
  done;
  out

(* ------------------------------------------------------------------ *)
(* Program                                                             *)
(* ------------------------------------------------------------------ *)

type config = { tile_rows : int; comm_binding : Design_space.resource_binding }

let default_config = { tile_rows = 128; comm_binding = Design_space.Comm_on_dma }

(* Channel spaces (pc channels, per rank):
   link A (arrival of dispatched segments at the expert owner):
     channel = segment index in the owner's segment list;
   link B (expert_out segment completion, local):
     channel = base_b + segment index;
   link C (combined results back at the token owner):
     channel = base_c + global expert id. *)

let program ?(config = default_config) spec route ~(spec_gpu : Spec.t) =
  let r = spec.world_size in
  if spec.tokens mod r <> 0 || spec.experts mod r <> 0 then
    invalid_arg "Ep_moe.program: tokens and experts must divide evenly";
  let layout = build_layout spec route in
  let h = spec.hidden in
  let max_segments =
    Array.fold_left
      (fun acc segs -> max acc (List.length segs))
      0 layout.segments_of_rank
  in
  let base_b = max_segments in
  let base_c = 2 * max_segments in
  let pc_channels = (2 * max_segments) + spec.experts in
  let bytes_of rows = float_of_int rows *. float_of_int h *. Cost.dtype_bytes in
  let plans =
    Array.init r (fun rank ->
        let my_segments = layout.segments_of_rank.(rank) in
        (* --- dispatch: push each of MY tokens' segments to their
           expert owners --- *)
        let dispatch_tasks =
          List.concat
            (List.init r (fun owner ->
                 List.filter_map
                   (fun (seg_index, seg) ->
                     if seg.src <> rank || seg.entries = [] then None
                     else
                       let rows = List.length seg.entries in
                       let gather_action memory ~rank =
                         let shard =
                           Memory.find memory ~rank ~name:"tok_shard"
                         in
                         let dst =
                           Memory.find memory ~rank:owner ~name:"recv_buf"
                         in
                         List.iteri
                           (fun i (token, _slot) ->
                             Tensor.set_row_slice dst ~lo:(seg.recv_lo + i)
                               (Tensor.row_slice shard
                                  ~lo:(token mod tokens_per_rank spec)
                                  ~hi:((token mod tokens_per_rank spec) + 1)))
                           seg.entries
                       in
                       Some
                         {
                           Program.label =
                             Printf.sprintf "dispatch[e%d->r%d]" seg.expert
                               owner;
                           instrs =
                             [
                               Instr.Copy
                                 {
                                   label =
                                     Printf.sprintf "dispatch[e%d]" seg.expert;
                                   src =
                                     access ~buffer:"tok_shard" ~row:(0, rows)
                                       ~col:(0, h) ();
                                   dst =
                                     access ~rank:owner ~buffer:"recv_buf"
                                       ~row:
                                         (seg.recv_lo, seg.recv_lo + rows)
                                       ~col:(0, h) ();
                                   bytes = bytes_of rows;
                                   action = Some gather_action;
                                 };
                               Instr.Notify
                                 {
                                   target =
                                     Instr.Pc { rank = owner; channel = seg_index };
                                   amount = 1;
                                   releases =
                                     [
                                       access ~rank:owner ~buffer:"recv_buf"
                                         ~row:(seg.recv_lo, seg.recv_lo + rows)
                                         ~col:(0, h) ();
                                     ];
                                 };
                             ];
                         })
                   (List.mapi
                      (fun i seg -> (i, seg))
                      layout.segments_of_rank.(owner))))
        in
        (* --- expert FFN: segment-aligned tiles --- *)
        let ffn_tasks =
          List.concat
            (List.mapi
               (fun seg_index seg ->
                 let rows = List.length seg.entries in
                 if rows = 0 then []
                 else begin
                   let tiles = (rows + config.tile_rows - 1) / config.tile_rows in
                   List.init tiles (fun t ->
                       let lo = seg.recv_lo + (t * config.tile_rows) in
                       let hi =
                         min (seg.recv_lo + rows) (lo + config.tile_rows)
                       in
                       let e_local = seg.expert mod experts_per_rank spec in
                       let action memory ~rank =
                         let recv = Memory.find memory ~rank ~name:"recv_buf" in
                         let out =
                           Memory.find memory ~rank ~name:"expert_out"
                         in
                         Tensor.set_row_slice out ~lo
                           (expert_ffn memory ~owner:rank ~e_local
                              (Tensor.row_slice recv ~lo ~hi)
                              spec)
                       in
                       {
                         Program.label =
                           Printf.sprintf "ffn[e%d,t%d]" seg.expert t;
                         instrs =
                           [
                             Instr.Wait
                               {
                                 target = Instr.Pc { rank; channel = seg_index };
                                 threshold = 1;
                                 guards =
                                   [
                                     access ~buffer:"recv_buf" ~row:(lo, hi)
                                       ~col:(0, h) ();
                                   ];
                               };
                             Instr.Load
                               { access = access ~buffer:"recv_buf" ~row:(lo, hi) ~col:(0, h) () };
                             Instr.Compute
                               {
                                 label = Printf.sprintf "ffn-up[e%d,t%d]" seg.expert t;
                                 cost =
                                   Instr.Gemm_tile
                                     { tm = hi - lo; tn = spec.intermediate; k = h };
                                 reads =
                                   [
                                     access ~buffer:"recv_buf" ~row:(lo, hi)
                                       ~col:(0, h) ();
                                   ];
                                 writes = [];
                                 action = None;
                               };
                             Instr.Compute
                               {
                                 label = Printf.sprintf "ffn-down[e%d,t%d]" seg.expert t;
                                 cost =
                                   Instr.Gemm_tile
                                     { tm = hi - lo; tn = h; k = spec.intermediate };
                                 reads = [];
                                 writes =
                                   [
                                     access ~buffer:"expert_out" ~row:(lo, hi)
                                       ~col:(0, h) ();
                                   ];
                                 action = Some action;
                               };
                             Instr.Store
                               { access = access ~buffer:"expert_out" ~row:(lo, hi) ~col:(0, h) () };
                             Instr.Notify
                               {
                                 target =
                                   Instr.Pc { rank; channel = base_b + seg_index };
                                 amount = 1;
                                 releases =
                                   [
                                     access ~buffer:"expert_out" ~row:(lo, hi)
                                       ~col:(0, h) ();
                                   ];
                               };
                           ];
                       })
                 end)
               my_segments)
        in
        (* --- combine: send finished segments back to token owners --- *)
        let combine_tasks =
          List.concat
            (List.mapi
               (fun seg_index seg ->
                 let rows = List.length seg.entries in
                 if rows = 0 then []
                 else begin
                   let tiles = (rows + config.tile_rows - 1) / config.tile_rows in
                   let scatter_action memory ~rank =
                     let src = Memory.find memory ~rank ~name:"expert_out" in
                     let dst =
                       Memory.find memory ~rank:seg.src ~name:"combine_buf"
                     in
                     List.iteri
                       (fun i entry ->
                         Tensor.set_row_slice dst ~lo:(combine_pos spec entry)
                           (Tensor.row_slice src ~lo:(seg.recv_lo + i)
                              ~hi:(seg.recv_lo + i + 1)))
                       seg.entries
                   in
                   [
                     {
                       Program.label =
                         Printf.sprintf "combine[e%d->r%d]" seg.expert seg.src;
                       instrs =
                         [
                           Instr.Wait
                             {
                               target =
                                 Instr.Pc { rank; channel = base_b + seg_index };
                               threshold = tiles;
                               guards =
                                 [
                                   access ~buffer:"expert_out"
                                     ~row:(seg.recv_lo, seg.recv_lo + rows)
                                     ~col:(0, h) ();
                                 ];
                             };
                           Instr.Copy
                             {
                               label = Printf.sprintf "combine[e%d]" seg.expert;
                               src =
                                 access ~buffer:"expert_out"
                                   ~row:(seg.recv_lo, seg.recv_lo + rows)
                                   ~col:(0, h) ();
                               dst =
                                 access ~rank:seg.src ~buffer:"combine_buf"
                                   ~row:(0, tokens_per_rank spec * spec.topk)
                                   ~col:(0, h) ();
                               bytes = bytes_of rows;
                               action = Some scatter_action;
                             };
                           Instr.Notify
                             {
                               target =
                                 Instr.Pc
                                   { rank = seg.src; channel = base_c + seg.expert };
                               amount = 1;
                               releases =
                                 [
                                   access ~rank:seg.src ~buffer:"combine_buf"
                                     ~row:(0, tokens_per_rank spec * spec.topk)
                                     ~col:(0, h) ();
                                 ];
                             };
                         ];
                     };
                   ]
                 end)
               my_segments)
        in
        (* --- final gate-weighted top-k reduction --- *)
        let reduce_tiles =
          (tokens_per_rank spec + config.tile_rows - 1) / config.tile_rows
        in
        let reduce_task ti =
          let tlo = ti * config.tile_rows in
          let thi = min (tokens_per_rank spec) (tlo + config.tile_rows) in
          (* Experts any token of this tile uses (deduped): the tile
             must wait for their combined segments. *)
          let experts_needed =
            let seen = Hashtbl.create 16 in
            for local_t = tlo to thi - 1 do
              Array.iter
                (fun e -> Hashtbl.replace seen e ())
                (Routing.experts_of_token route
                   ((rank * tokens_per_rank spec) + local_t))
            done;
            Hashtbl.fold (fun e () acc -> e :: acc) seen [] |> List.sort compare
          in
          let action memory ~rank =
            let combine = Memory.find memory ~rank ~name:"combine_buf" in
            let out = Memory.find memory ~rank ~name:"out" in
            for local_t = tlo to thi - 1 do
              let token = (rank * tokens_per_rank spec) + local_t in
              let weights = Routing.weights_of_token route token in
              let acc = Tensor.zeros (Shape.of_list [ 1; h ]) in
              Array.iteri
                (fun slot _e ->
                  Tensor.add_inplace acc
                    (Tensor.scale weights.(slot)
                       (Tensor.row_slice combine
                          ~lo:(combine_pos spec (token, slot))
                          ~hi:(combine_pos spec (token, slot) + 1))))
                (Routing.experts_of_token route token);
              Tensor.set_row_slice out ~lo:local_t acc
            done
          in
          {
            Program.label = Printf.sprintf "reduce[%d]" ti;
            instrs =
              List.map
                (fun e ->
                  Instr.Wait
                    {
                      target = Instr.Pc { rank; channel = base_c + e };
                      threshold = 1;
                      guards =
                        [
                          access ~buffer:"combine_buf"
                            ~row:(0, tokens_per_rank spec * spec.topk)
                            ~col:(0, h) ();
                        ];
                    })
                experts_needed
              @ [
                  Instr.Load
                    {
                      access =
                        access ~buffer:"combine_buf"
                          ~row:(0, tokens_per_rank spec * spec.topk)
                          ~col:(0, h) ();
                    };
                  Instr.Compute
                    {
                      label = Printf.sprintf "topk-reduce[%d]" ti;
                      cost =
                        Instr.Memory_tile
                          {
                            rows = (thi - tlo) * spec.topk;
                            cols = h;
                            passes = 2;
                          };
                      reads =
                        [
                          access ~buffer:"combine_buf"
                            ~row:(0, tokens_per_rank spec * spec.topk)
                            ~col:(0, h) ();
                        ];
                      writes =
                        [ access ~buffer:"out" ~row:(tlo, thi) ~col:(0, h) () ];
                      action = Some action;
                    };
                  Instr.Store
                    { access = access ~buffer:"out" ~row:(tlo, thi) ~col:(0, h) () };
                ];
          }
        in
        let reduce_tasks = List.init reduce_tiles reduce_task in
        let comm_resource =
          match config.comm_binding with
          | Design_space.Comm_on_sm sms -> Program.Sm_partition sms
          | Design_space.Comm_on_dma | Design_space.Comm_hybrid _ ->
            Overlap.dma_engines spec_gpu
        in
        let comm_lane =
          match config.comm_binding with
          | Design_space.Comm_on_sm _ -> Tilelink_sim.Trace.Comm_sm
          | _ -> Tilelink_sim.Trace.Dma
        in
        [
          {
            Program.role_name = "dispatch";
            resource = comm_resource;
            lane = comm_lane;
            tasks = dispatch_tasks;
          };
          {
            Program.role_name = "expert-ffn";
            resource = Program.Sm_partition spec_gpu.Spec.gpu.num_sms;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = ffn_tasks;
          };
          {
            Program.role_name = "combine";
            resource = comm_resource;
            lane = comm_lane;
            tasks = combine_tasks;
          };
          {
            Program.role_name = "topk-reduce";
            resource = Program.Sm_partition 16;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = reduce_tasks;
          };
        ])
  in
  Program.create ~name:"ep_moe" ~world_size:r ~pc_channels ~peer_channels:1
    plans
