(* Sequence-parallel self-attention: AllGather KV + flash attention
   (Figure 6 of the paper).

   Communication uses *host-side* primitives: a host stream issues
   rank_copy_data transfers (copy engine) segment by segment and
   signals producer channels; the flash-attention kernel's consumer
   tiles wait per KV segment and fold blocks into online-softmax state
   in arrival order.

   Layout: (batch x heads) flattens to a leading z index.
   - "q"       [z * s_per_rank, d]   local queries
   - "k_shard" [z * s_per_rank, d]   local KV shards
   - "v_shard" [z * s_per_rank, d]
   - "k_full"  [z * seq, d]          gathered KV (row = z*seq + j)
   - "v_full"  [z * seq, d]
   - "o"       [z * s_per_rank, d]   output *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  batch_heads : int;  (* z = batch x heads *)
  seq : int;          (* global KV sequence length *)
  head_dim : int;
  world_size : int;
  causal : bool;
}

let access = Instr.access

let s_per_rank spec = spec.seq / spec.world_size

let alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.world_size in
  let spr = s_per_rank spec in
  let local_rows = spec.batch_heads * spr in
  let full_rows = spec.batch_heads * spec.seq in
  for rank = 0 to spec.world_size - 1 do
    List.iteri
      (fun i name ->
        Memory.bind memory ~rank ~name
          (Tensor.random
             ~seed:(seed + (100 * i) + rank)
             (Shape.of_list [ local_rows; spec.head_dim ])))
      [ "q"; "k_shard"; "v_shard" ];
    List.iter
      (fun name ->
        ignore
          (Memory.alloc memory ~rank ~name
             (Shape.of_list [ full_rows; spec.head_dim ])))
      [ "k_full"; "v_full" ];
    ignore
      (Memory.alloc memory ~rank ~name:"o"
         (Shape.of_list [ local_rows; spec.head_dim ]))
  done;
  memory

(* Gathered K (or V) for one z: shard r contributes rows
   [z*spr, (z+1)*spr) into segment r. *)
let gathered memory spec ~name ~z =
  let spr = s_per_rank spec in
  Tensor.concat_rows
    (List.init spec.world_size (fun r ->
         Tensor.row_slice
           (Memory.find memory ~rank:r ~name)
           ~lo:(z * spr) ~hi:((z + 1) * spr)))

let mask spec ~rank =
  if spec.causal then
    Nn.Causal { q_offset = rank * s_per_rank spec }
  else Nn.No_mask

let reference memory spec ~rank =
  let spr = s_per_rank spec in
  let out =
    Tensor.zeros (Shape.of_list [ spec.batch_heads * spr; spec.head_dim ])
  in
  for z = 0 to spec.batch_heads - 1 do
    let q =
      Tensor.row_slice
        (Memory.find memory ~rank ~name:"q")
        ~lo:(z * spr) ~hi:((z + 1) * spr)
    in
    let k = gathered memory spec ~name:"k_shard" ~z in
    let v = gathered memory spec ~name:"v_shard" ~z in
    Tensor.set_row_slice out ~lo:(z * spr)
      (Nn.attention ~mask:(mask spec ~rank) q k v)
  done;
  out

type config = {
  q_tile : int;   (* query rows per consumer tile *)
  kv_tile : int;  (* KV rows consumed per flash step *)
}

let default_config = { q_tile = 128; kv_tile = 512 }

(* A consumer tile's work on one KV tile, free of any rank: the wait
   and loads that start it, lowered once with the rank symbolic, and the
   flash step's reads and data action.  Only the flash step's label
   depends on the rank, through the ring step at which the rank reaches
   the KV tile. *)
type kv_step = {
  prologue : Instr.t list;
  reads : Instr.access list;
  action : Instr.action option;
}

(* One consumer tile, a (z, q-tile) pair: its labels, with the flash
   labels indexed by ring step, and its lowered instructions, with the
   KV steps indexed by global KV tile. *)
type consumer = {
  label : string;
  flash_labels : string array;
  load_q : Instr.t list;
  kv_steps : kv_step array;
  epilogue : Instr.t list;
}

let program ?(config = default_config) spec ~(spec_gpu : Spec.t) =
  let r = spec.world_size in
  let spr = s_per_rank spec in
  if spr mod config.q_tile <> 0 then
    invalid_arg "Attention.program: q tile must divide the query shard";
  if spec.seq mod config.kv_tile <> 0 then
    invalid_arg "Attention.program: kv tile must divide the sequence";
  if config.kv_tile > spr then
    invalid_arg "Attention.program: kv tile larger than a segment";
  (* One producer tile (and one channel) per rank segment of KV. *)
  let mapping =
    Mapping.static ~extent:spec.seq ~ranks:r ~channels_per_rank:1 ~tile:spr
      ()
  in
  let d = spec.head_dim in
  (* Everything rank-invariant is built and lowered once per program:
     labels, instructions and data actions.  Each rank only rotates the
     fragments into its own ring order and instantiates them. *)
  let bc = Block_channel.symbolic ~world_size:r mapping in
  (* --- host stream: copy-engine AllGather of K and V ---
     One rank_copy_data per (tensor, segment): the copy engine moves the
     whole z-strided segment in a single transfer; the strided scatter
     into the full buffer is the custom data action. *)
  let copy_segment src_rank =
    let strided_blit ~shard ~full memory ~rank =
      let src = Memory.find memory ~rank:src_rank ~name:shard in
      let dst = Memory.find memory ~rank ~name:full in
      for z = 0 to spec.batch_heads - 1 do
        Tensor.set_row_slice dst
          ~lo:((z * spec.seq) + (src_rank * spr))
          (Tensor.row_slice src ~lo:(z * spr) ~hi:((z + 1) * spr))
      done
    in
    {
      Block_channel.label = Printf.sprintf "agkv[%d]" src_rank;
      stmts =
        List.map
          (fun (shard, full) ->
            Primitive.Rank_copy_data
              {
                src =
                  access ~rank:src_rank ~buffer:shard
                    ~row:(0, spec.batch_heads * spr)
                    ~col:(0, d) ();
                dst =
                  access ~buffer:full
                    ~row:(src_rank * spr, (src_rank + 1) * spr)
                    ~col:(0, d) ();
                action = Some (strided_blit ~shard ~full);
              })
          [ ("k_shard", "k_full"); ("v_shard", "v_full") ]
        @ [
            Primitive.Producer_tile_notify
              { tid = src_rank; mode = Primitive.P2p };
          ];
    }
  in
  let segments = Array.init r copy_segment in
  (* --- flash attention consumer --- *)
  let kv_count = spec.seq / config.kv_tile in
  let flash_cost =
    Instr.Attention_tile { tq = config.q_tile; tkv = config.kv_tile; d }
  in
  let consumer z mt =
    let qlo = (z * spr) + (mt * config.q_tile) in
    let qhi = qlo + config.q_tile in
    (* Online-softmax state lives across the tile's steps and is private
       to the rank that runs it: data actions take their rank's slot.
       A replay runs under its owner's rank, and a rebuild gets fresh
       slots. *)
    let states = Array.make r None in
    let get_state rank =
      match states.(rank) with
      | Some s -> s
      | None ->
        let mask =
          if spec.causal then
            Nn.Causal { q_offset = (rank * spr) + (mt * config.q_tile) }
          else Nn.No_mask
        in
        let s = Nn.Flash.create ~mask ~m:config.q_tile ~d () in
        states.(rank) <- Some s;
        s
    in
    let kv_step kv =
      let klo = kv * config.kv_tile in
      let khi = klo + config.kv_tile in
      let rows = ((z * spec.seq) + klo, (z * spec.seq) + khi) in
      let action memory ~rank =
        let state = get_state rank in
        let block name (lo, hi) =
          Tensor.row_slice (Memory.find memory ~rank ~name) ~lo ~hi
        in
        Nn.Flash.update state
          (block "q" (qlo, qhi))
          (block "k_full" rows) (block "v_full" rows) ~kv_offset:klo
      in
      let k_rows = access ~buffer:"k_full" ~row:rows ~col:(0, d) () in
      {
        prologue =
          Block_channel.lower bc
            [
              Primitive.Consumer_tile_wait
                { lo = klo; hi = khi; buffer = "k_full"; col = (0, d) };
              Primitive.Load k_rows;
              Primitive.Load (access ~buffer:"v_full" ~row:rows ~col:(0, d) ());
            ];
        reads = [ k_rows ];
        action = Some action;
      }
    in
    let finish_action memory ~rank =
      let state = get_state rank in
      Tensor.set_row_slice
        (Memory.find memory ~rank ~name:"o")
        ~lo:qlo (Nn.Flash.finish state)
    in
    {
      label = Printf.sprintf "attn[z%d,m%d]" z mt;
      flash_labels =
        Array.init kv_count (Printf.sprintf "flash[z%d,m%d,s%d]" z mt);
      load_q =
        Block_channel.lower bc
          [
            Primitive.Load (access ~buffer:"q" ~row:(qlo, qhi) ~col:(0, d) ());
          ];
      kv_steps = Array.init kv_count kv_step;
      epilogue =
        Block_channel.lower bc
          [
            Primitive.Compute
              {
                label = Printf.sprintf "finish[z%d,m%d]" z mt;
                cost =
                  Instr.Memory_tile
                    { rows = config.q_tile; cols = d; passes = 1 };
                reads = [];
                writes = [ access ~buffer:"o" ~row:(qlo, qhi) ~col:(0, d) () ];
                action = Some finish_action;
              };
            Primitive.Store
              (access ~buffer:"o" ~row:(qlo, qhi) ~col:(0, d) ());
          ];
    }
  in
  let m_tiles = spr / config.q_tile in
  let consumers =
    List.concat
      (List.init spec.batch_heads (fun z -> List.init m_tiles (consumer z)))
  in
  let steps_per_segment = spr / config.kv_tile in
  let segments = Array.map (Block_channel.lower_task bc) segments in
  let plans =
    Array.init r (fun rank ->
        (* Own segment first (local copies), then ring order. *)
        let host_tasks =
          List.init r (fun step ->
              Block_channel.instantiate_task ~rank
                segments.((rank + step) mod r))
        in
        (* Start at the local segment's first KV tile, walk the ring. *)
        let first = rank * steps_per_segment in
        let attn_task c =
          let flash_step step =
            let kv = c.kv_steps.((first + step) mod kv_count) in
            Block_channel.instantiate ~rank kv.prologue
            @ Block_channel.lower bc
                [
                  Primitive.Compute
                    {
                      label = c.flash_labels.(step);
                      cost = flash_cost;
                      reads = kv.reads;
                      writes = [];
                      action = kv.action;
                    };
                ]
          in
          {
            Program.label = c.label;
            instrs =
              c.load_q
              @ List.concat (List.init kv_count flash_step)
              @ c.epilogue;
          }
        in
        [
          {
            Program.role_name = "agkv-host";
            resource = Program.Host_stream;
            lane = Tilelink_sim.Trace.Dma;
            tasks = host_tasks;
          };
          {
            Program.role_name = "flash-attn";
            resource = Program.Sm_partition spec_gpu.Spec.gpu.num_sms;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = List.map attn_task consumers;
          };
        ])
  in
  Program.create ~name:"ag_attention" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:1 plans

(* Compute-only flash attention (no communication), for overlap-ratio
   accounting: ceil(tiles / sms) waves over all (z, q-tile, kv-step)
   work. *)
let flash_only_time (spec_gpu : Spec.t) spec ~(config : config) =
  let spr = s_per_rank spec in
  let q_tiles = spec.batch_heads * (spr / config.q_tile) in
  let steps = spec.seq / config.kv_tile in
  let tile_time =
    Cost.attention_tile_time spec_gpu ~tq:config.q_tile ~tkv:config.kv_tile
      ~d:spec.head_dim
  in
  let sms = spec_gpu.Spec.gpu.num_sms in
  let waves = (q_tiles + sms - 1) / sms in
  spec_gpu.Spec.overheads.kernel_launch
  +. (float_of_int waves *. float_of_int steps *. tile_time)

(* Communication-only time: the host-stream AllGather of K and V. *)
let comm_only_time (spec_gpu : Spec.t) spec =
  let spr = s_per_rank spec in
  let bytes =
    2.0 (* K and V *)
    *. float_of_int (spec.world_size - 1)
    *. float_of_int (spec.batch_heads * spr)
    *. float_of_int spec.head_dim *. Cost.dtype_bytes
  in
  spec_gpu.Spec.overheads.kernel_launch
  +. (bytes /. (spec_gpu.Spec.interconnect.nvlink_gbps *. 1.0e3))
