(* Model-level (pipeline) parallelism from tile-centric primitives —
   the paper's future-work direction (§7.4): "integrate NVSHMEM
   functionalities into tile_push_data and follow the same compilation
   techniques".

   Each rank is one pipeline stage holding one layer (a square GEMM).
   Micro-batches flow through the stages; within a stage the *send* of
   a finished micro-batch tile overlaps the *compute* of the next one:

     arrival link (A): previous stage's pushes -> this stage's GEMM
                       consumer waits (producer notify To_rank next);
     egress link (B):  this stage's GEMM tiles -> this stage's comm
                       role, which pushes to the next stage.

   The very first stage's input is staged locally and announced at
   start; the last stage keeps its output.  The resulting makespan
   shows classic pipelining: (stages + micro_batches - 1) slots rather
   than stages x micro_batches. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  stages : int;          (* = world size; one rank per stage *)
  micro_batches : int;
  micro_rows : int;      (* rows per micro-batch *)
  width : int;           (* hidden width (square layers) *)
}

let access = Instr.access

let total_rows spec = spec.micro_batches * spec.micro_rows

(* Buffers per rank (stage): "w" [width, width] layer weights;
   "in_buf"/"out_buf" [micro_batches * micro_rows, width]. *)
let alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.stages in
  let rows = total_rows spec in
  for rank = 0 to spec.stages - 1 do
    Memory.bind memory ~rank ~name:"w"
      (Tensor.random ~seed:(seed + 500 + rank)
         (Shape.of_list [ spec.width; spec.width ]));
    ignore
      (Memory.alloc memory ~rank ~name:"in_buf"
         (Shape.of_list [ rows; spec.width ]));
    ignore
      (Memory.alloc memory ~rank ~name:"out_buf"
         (Shape.of_list [ rows; spec.width ]))
  done;
  (* Global input lives on stage 0. *)
  Memory.bind memory ~rank:0 ~name:"input"
    (Tensor.random ~seed (Shape.of_list [ rows; spec.width ]));
  memory

let reference memory spec =
  let x = ref (Memory.find memory ~rank:0 ~name:"input") in
  for stage = 0 to spec.stages - 1 do
    x := Linalg.gemm !x (Memory.find memory ~rank:stage ~name:"w")
  done;
  !x

type config = { tile_rows : int; comm_sms : int }

let default_config = { tile_rows = 128; comm_sms = 8 }

let program ?(config = default_config) spec ~(spec_gpu : Spec.t) =
  let r = spec.stages in
  let rows = total_rows spec in
  if spec.micro_rows mod config.tile_rows <> 0 then
    invalid_arg "Pipeline_parallel.program: tile must divide a micro-batch";
  (* One channel per tile of each link keeps signalling fine-grained:
     extent = all rows, sharded "per rank" trivially (stage locality is
     expressed by which rank's channel instance gets notified). *)
  let link extent =
    Mapping.static ~extent ~ranks:1 ~channels_per_rank:(extent / config.tile_rows)
      ~tile:config.tile_rows ()
  in
  let mapping_a = link rows in
  let mapping_b = link rows in
  let base_b = Mapping.num_channels mapping_a in
  let tiles = rows / config.tile_rows in
  let copy_labels = Lower.copy_labels ~world_size:r in
  let plans =
    Array.init r (fun rank ->
        (* The per-link BlockChannels of this stage; note world_size 1
           in the mapping — notify targets cross ranks explicitly. *)
        let bc_a = Block_channel.create ~rank:0 ~world_size:1 mapping_a in
        ignore bc_a;
        let lower_cfg =
          {
            Lower.mapping = mapping_a;
            rank;
            world_size = r;
            labels = copy_labels;
          }
        in
        let lower_with base stmts =
          let shift = function
            | Instr.Wait { target = Instr.Pc { rank = _; channel }; threshold; guards }
              ->
              Instr.Wait
                {
                  target = Instr.Pc { rank; channel = channel + base };
                  threshold;
                  guards;
                }
            | instr -> instr
          in
          List.map shift
            (Lower.lower lower_cfg stmts)
        in
        (* --- seeding: stage 0 stages the input and announces it --- *)
        let seed_tasks =
          if rank <> 0 then []
          else
            List.init tiles (fun t ->
                let lo = t * config.tile_rows in
                let hi = lo + config.tile_rows in
                {
                  Program.label = Printf.sprintf "seed[%d]" t;
                  instrs =
                    [
                      Instr.Copy
                        {
                          label = Printf.sprintf "seed[%d]" t;
                          src =
                            access ~buffer:"input" ~row:(lo, hi)
                              ~col:(0, spec.width) ();
                          dst =
                            access ~buffer:"in_buf" ~row:(lo, hi)
                              ~col:(0, spec.width) ();
                          bytes =
                            Lower.bytes_of_access
                              (access ~buffer:"input" ~row:(lo, hi)
                                 ~col:(0, spec.width) ());
                          action = None;
                        };
                      Instr.Notify
                        {
                          target = Instr.Pc { rank = 0; channel = t };
                          amount = 1;
                          releases =
                            [
                              access ~buffer:"in_buf" ~row:(lo, hi)
                                ~col:(0, spec.width) ();
                            ];
                        };
                    ];
                })
        in
        (* --- compute role: 2-D GEMM tiles; each row tile announces
           on link B once per column tile, so the sender's threshold is
           the column-tile count --- *)
        let col_tile = min spec.width 128 in
        let col_tiles = (spec.width + col_tile - 1) / col_tile in
        let gemm_task t c =
          let lo = t * config.tile_rows in
          let hi = lo + config.tile_rows in
          let clo = c * col_tile in
          let chi = min spec.width (clo + col_tile) in
          let action memory ~rank =
            let x = Memory.find memory ~rank ~name:"in_buf" in
            let w = Memory.find memory ~rank ~name:"w" in
            let y = Memory.find memory ~rank ~name:"out_buf" in
            Linalg.gemm_tile ~out:y ~rows:(lo, hi) ~cols:(clo, chi) x w
          in
          let stmts =
            [
              Primitive.Consumer_tile_wait
                { lo; hi; buffer = "in_buf"; col = (0, spec.width) };
              Primitive.Load
                (access ~buffer:"in_buf" ~row:(lo, hi) ~col:(0, spec.width) ());
              Primitive.Load
                (access ~buffer:"w" ~row:(0, spec.width) ~col:(clo, chi) ());
              Primitive.Compute
                {
                  label = Printf.sprintf "stage%d-gemm[%d,%d]" rank t c;
                  cost =
                    Instr.Gemm_tile
                      { tm = config.tile_rows; tn = chi - clo; k = spec.width };
                  reads =
                    [
                      access ~buffer:"in_buf" ~row:(lo, hi)
                        ~col:(0, spec.width) ();
                    ];
                  writes =
                    [
                      access ~buffer:"out_buf" ~row:(lo, hi) ~col:(clo, chi) ();
                    ];
                  action = Some action;
                };
              Primitive.Store
                (access ~buffer:"out_buf" ~row:(lo, hi) ~col:(clo, chi) ());
            ]
          in
          {
            Program.label = Printf.sprintf "gemm[%d,%d]" t c;
            instrs =
              lower_with 0 stmts
              @ [
                  (* Announce the finished tile on link B (egress). *)
                  Instr.Notify
                    {
                      target = Instr.Pc { rank; channel = base_b + t };
                      amount = 1;
                      releases =
                        [
                          access ~buffer:"out_buf" ~row:(lo, hi)
                            ~col:(clo, chi) ();
                        ];
                    };
                ];
          }
        in
        let gemm_tasks =
          List.concat
            (List.init tiles (fun t ->
                 List.init col_tiles (fun c -> gemm_task t c)))
        in
        (* --- comm role: forward finished tiles to the next stage --- *)
        let send_task t =
          let lo = t * config.tile_rows in
          let hi = lo + config.tile_rows in
          {
            Program.label = Printf.sprintf "send[%d]" t;
            instrs =
              [
                Instr.Wait
                  {
                    target = Instr.Pc { rank; channel = base_b + t };
                    threshold = col_tiles;
                    guards =
                      [
                        access ~buffer:"out_buf" ~row:(lo, hi)
                          ~col:(0, spec.width) ();
                      ];
                  };
                Instr.Copy
                  {
                    label = Printf.sprintf "fwd[%d]" t;
                    src =
                      access ~buffer:"out_buf" ~row:(lo, hi)
                        ~col:(0, spec.width) ();
                    dst =
                      access ~rank:(rank + 1) ~buffer:"in_buf" ~row:(lo, hi)
                        ~col:(0, spec.width) ();
                    bytes =
                      Lower.bytes_of_access
                        (access ~buffer:"out_buf" ~row:(lo, hi)
                           ~col:(0, spec.width) ());
                    action = None;
                  };
                Instr.Notify
                  {
                    target = Instr.Pc { rank = rank + 1; channel = t };
                    amount = 1;
                    releases =
                      [
                        access ~rank:(rank + 1) ~buffer:"in_buf" ~row:(lo, hi)
                          ~col:(0, spec.width) ();
                      ];
                  };
              ];
          }
        in
        let send_tasks =
          if rank = r - 1 then [] else List.init tiles send_task
        in
        let comm_role =
          match seed_tasks @ send_tasks with
          | [] -> []
          | tasks ->
            [
              {
                Program.role_name = "stage-comm";
                resource = Overlap.dma_engines spec_gpu;
                lane = Tilelink_sim.Trace.Dma;
                tasks;
              };
            ]
        in
        ignore config.comm_sms;
        comm_role
        @ [
            {
              Program.role_name = "stage-gemm";
              resource = Program.Sm_partition spec_gpu.Spec.gpu.num_sms;
              lane = Tilelink_sim.Trace.Compute_sm;
              tasks = gemm_tasks;
            };
          ])
  in
  Program.create ~name:"pipeline_parallel" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping_a + Mapping.num_channels mapping_b)
    ~peer_channels:1 plans

(* Serial (non-pipelined) reference time: each stage computes its whole
   batch, then transfers it, stage after stage. *)
let serial_time (spec_gpu : Spec.t) spec =
  let rows = total_rows spec in
  let gemm =
    Cost.gemm_kernel_time spec_gpu ~sms:spec_gpu.Spec.gpu.num_sms ~m:rows
      ~n:spec.width ~k:spec.width ~tm:128 ~tn:128
  in
  let transfer_bytes =
    float_of_int rows *. float_of_int spec.width *. Cost.dtype_bytes
  in
  let transfer =
    transfer_bytes /. (spec_gpu.Spec.interconnect.nvlink_gbps *. 1.0e3)
  in
  float_of_int spec.stages
  *. (gemm +. spec_gpu.Spec.overheads.kernel_launch)
  +. (float_of_int (spec.stages - 1) *. (transfer +. spec_gpu.Spec.overheads.host_sync))
