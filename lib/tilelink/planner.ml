(* Auto-overlap planner.

   Hand-written overlapped kernels (lib/workloads) encode the Pc
   notify/wait protocol by construction; this module derives it.  An
   operator graph — one AllGather producer feeding tiled row-range
   consumers — plus one candidate point of the (decoupled design space
   x transfer direction x chunk count) space is synthesized into an
   ordinary [Program.t] using only [Primitive] statements lowered
   through a [Mapping.static]: every notify and wait in the result
   comes out of the tile-centric lowering, none is written by hand.

   Candidate pruning and scoring run through [Tune.search_planned]:
   the analyzer rejects statically-broken protocols before any
   simulation (and before an entry loaded from a cache file replays),
   survivors are simulated for makespan plus exposed-communication
   blame, and the planner picks the makespan minimum with exposed
   communication as the tiebreak.  A survivor whose makespan lower
   bound ([Bound.makespan]) is above a simulated makespan is pruned
   unsimulated; it could not have won.  A hit on an entry this process
   wrote skips synthesis and analysis, which it passed when stored,
   so a warm search synthesizes only its winner. *)

open Tilelink_tensor

(* ------------------------------------------------------------------ *)
(* Operator graph                                                      *)
(* ------------------------------------------------------------------ *)

type consumer_kind =
  | Gemm of { weights : string; n : int }
  | Softmax_rows

type consumer = { co_name : string; co_out : string; co_kind : consumer_kind }

let consumer ~name ~out kind = { co_name = name; co_out = out; co_kind = kind }

type graph = {
  g_name : string;
  g_rows : int;
  g_cols : int;
  g_world : int;
  g_shard : string;
  g_gathered : string;
  g_consumers : consumer list;
}

let graph ~name ~rows ~cols ~world ?(shard = "x_shard") ?(gathered = "x_full")
    consumers =
  if world < 2 then invalid_arg "Planner.graph: world must be >= 2";
  if rows mod world <> 0 then
    invalid_arg "Planner.graph: rows must divide over the world";
  if cols < 1 then invalid_arg "Planner.graph: cols must be >= 1";
  if consumers = [] then invalid_arg "Planner.graph: no consumers";
  let outs = List.map (fun c -> c.co_out) consumers in
  if List.length (List.sort_uniq compare outs) <> List.length outs then
    invalid_arg "Planner.graph: consumers share an output buffer";
  {
    g_name = name;
    g_rows = rows;
    g_cols = cols;
    g_world = world;
    g_shard = shard;
    g_gathered = gathered;
    g_consumers = consumers;
  }

let consumer_kind_fingerprint = function
  | Gemm { weights; n } -> Printf.sprintf "gemm(%s,n=%d)" weights n
  | Softmax_rows -> "softmax_rows"

let graph_fingerprint g =
  Printf.sprintf "%s;m=%d;k=%d;w=%d;%s->%s;[%s]" g.g_name g.g_rows g.g_cols
    g.g_world g.g_shard g.g_gathered
    (String.concat ";"
       (List.map
          (fun c ->
            Printf.sprintf "%s:%s:%s" c.co_name c.co_out
              (consumer_kind_fingerprint c.co_kind))
          g.g_consumers))

let out_cols g c =
  match c.co_kind with Gemm { n; _ } -> n | Softmax_rows -> g.g_cols

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

type transfer = Push | Pull

let transfer_to_string = function Push -> "push" | Pull -> "pull"

type candidate = {
  pl_config : Design_space.config;
  pl_transfer : transfer;
  pl_chunks : int;
}

let candidate_to_string c =
  Printf.sprintf "%s | %s | chunks=%d"
    (Design_space.config_to_string c.pl_config)
    (transfer_to_string c.pl_transfer)
    c.pl_chunks

let fingerprint c =
  Printf.sprintf "%s;transfer=%s;chunks=%d"
    (Design_space.fingerprint c.pl_config)
    (transfer_to_string c.pl_transfer)
    c.pl_chunks

type space = {
  sp_design : Design_space.space;
  sp_transfers : transfer list;
  sp_chunks : int list;
}

(* Keep the [n] largest entries of an ascending ladder. *)
let keep_largest n xs =
  let rec drop k = function
    | l when k <= 0 -> l
    | _ :: tl -> drop (k - 1) tl
    | [] -> []
  in
  drop (List.length xs - n) xs

let ladder = [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* Communication tile rows must divide the shard; compute tiles only
   need to fit the extents (grids are ragged at the edge).  The ladder
   is clipped so toy test shapes and bench shapes both get a sensible,
   small space. *)
let default_space g =
  let shard_rows = g.g_rows / g.g_world in
  let comm_rows =
    match
      keep_largest 3 (List.filter (fun d -> shard_rows mod d = 0) ladder)
    with
    | [] -> [ shard_rows ]
    | ds -> ds
  in
  let compute_rows =
    match keep_largest 2 (List.filter (fun d -> d <= shard_rows) ladder) with
    | [] -> [ shard_rows ]
    | ds -> ds
  in
  let min_width =
    List.fold_left (fun acc c -> min acc (out_cols g c)) max_int g.g_consumers
  in
  let compute_cols =
    List.sort_uniq compare [ max 1 (min_width / 2); min_width ]
  in
  let compute_tiles =
    List.concat_map
      (fun tm -> List.map (fun tn -> (tm, tn)) compute_cols)
      compute_rows
  in
  {
    sp_design =
      {
        Design_space.comm_tiles =
          List.map (fun tm -> (tm, g.g_cols)) comm_rows;
        compute_tiles;
        comm_orders =
          [ Tile.Ring_from_self { segments = g.g_world }; Tile.Row_major ];
        compute_orders = [ Tile.Ring_from_self { segments = g.g_world } ];
        bindings = [ Design_space.Comm_on_sm 1; Design_space.Comm_on_dma ];
        stage_choices = [ 2 ];
        micro_blocks = [ 0 ];
      };
    sp_transfers = [ Pull; Push ];
    sp_chunks = [ 1; 2 ];
  }

let enumerate space =
  List.concat_map
    (fun pl_config ->
      List.concat_map
        (fun pl_transfer ->
          List.map
            (fun pl_chunks -> { pl_config; pl_transfer; pl_chunks })
            space.sp_chunks)
        space.sp_transfers)
    (Design_space.enumerate space.sp_design)

let size space = List.length (enumerate space)

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let access = Instr.access
let ceil_div a b = (a + b - 1) / b

(* Row softmax, max-subtracted, strictly row by row and left to right:
   the single definition shared by synthesized programs and reference
   checks, so tiling can never change bits (rows are independent). *)
let softmax_rows x =
  let rows = Tensor.rows x and cols = Tensor.cols x in
  let out = Tensor.zeros (Tensor.shape x) in
  for i = 0 to rows - 1 do
    let m = ref neg_infinity in
    for j = 0 to cols - 1 do
      let v = Tensor.get2 x i j in
      if v > !m then m := v
    done;
    let s = ref 0.0 in
    for j = 0 to cols - 1 do
      let e = exp (Tensor.get2 x i j -. !m) in
      Tensor.set2 out i j e;
      s := !s +. e
    done;
    for j = 0 to cols - 1 do
      Tensor.set2 out i j (Tensor.get2 out i j /. !s)
    done
  done;
  out

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

(* The gather tasks of a program, one per producer tile, indexed by
   tile id: pull mode fetches the tile into the running rank's gathered
   buffer and signals its local consumers; push mode broadcasts the tile
   from its owner into every rank's gathered buffer and notifies all of
   them. *)
let gather_tasks g cand ~mapping ~comm_grid =
  let pull tid =
    let lo, hi = Mapping.shape_range mapping ~tid in
    {
      Block_channel.label = Printf.sprintf "gather[%d]" tid;
      stmts =
        [
          Primitive.Tile_pull_data
            {
              tid;
              src_buffer = g.g_shard;
              src_view = `Shard;
              col = (0, g.g_cols);
              dst =
                access ~buffer:g.g_gathered ~row:(lo, hi) ~col:(0, g.g_cols) ();
              action = None;
            };
          Primitive.Producer_tile_notify { tid; mode = Primitive.P2p };
        ];
    }
  in
  let push tid =
    let glo, ghi = Mapping.shape_range mapping ~tid in
    let slo, shi = Mapping.src_shard_range mapping ~tid in
    let src = access ~buffer:g.g_shard ~row:(slo, shi) ~col:(0, g.g_cols) () in
    let dst =
      access ~buffer:g.g_gathered ~row:(glo, ghi) ~col:(0, g.g_cols) ()
    in
    {
      Block_channel.label = Printf.sprintf "gather-push[%d]" tid;
      stmts =
        List.init g.g_world (fun dst_rank ->
            Primitive.Tile_push_data { src; dst_rank; dst })
        @ [
            Primitive.Producer_tile_notify { tid; mode = Primitive.Broadcast };
          ];
    }
  in
  Array.init (Tile.tile_count comm_grid)
    (match cand.pl_transfer with Pull -> pull | Push -> push)

(* One consumer tile: wait for the gathered rows it reads, loop over
   [pl_chunks] column chunks of the gathered buffer, run the kind's
   compute (the data action rides on the last non-empty chunk), store
   the output tile. *)
let consumer_task g cand co ~grid tile =
  let config = cand.pl_config in
  let lo, hi = Tile.rows grid tile in
  let clo, chi = Tile.cols grid tile in
  let chunk = ceil_div g.g_cols cand.pl_chunks in
  let live_chunks = ceil_div g.g_cols chunk in
  let chunk_range kc = (kc * chunk, min g.g_cols ((kc + 1) * chunk)) in
  let label =
    Printf.sprintf "%s[%d,%d]" co.co_name tile.Tile.tid_m tile.Tile.tid_n
  in
  let body =
    match co.co_kind with
    | Gemm { weights; n = _ } ->
      let action memory ~rank =
        let x = Memory.find memory ~rank ~name:g.g_gathered in
        let w = Memory.find memory ~rank ~name:weights in
        let y = Memory.find memory ~rank ~name:co.co_out in
        Linalg.gemm_tile ~out:y ~rows:(lo, hi) ~cols:(clo, chi)
          ~block:config.Design_space.micro_block x w
      in
      List.concat
        (List.init live_chunks (fun kc ->
             let klo, khi = chunk_range kc in
             if klo >= khi then []
             else
               [
                 Primitive.Load
                   (access ~buffer:g.g_gathered ~row:(lo, hi) ~col:(klo, khi)
                      ());
                 Primitive.Load
                   (access ~buffer:weights ~row:(klo, khi) ~col:(clo, chi) ());
                 Primitive.Compute
                   {
                     label = label ^ "k" ^ string_of_int kc;
                     cost =
                       Instr.Gemm_tile
                         { tm = hi - lo; tn = chi - clo; k = khi - klo };
                     reads =
                       [
                         access ~buffer:g.g_gathered ~row:(lo, hi)
                           ~col:(klo, khi) ();
                       ];
                     writes = [];
                     action =
                       (if kc = live_chunks - 1 then Some action else None);
                   };
               ]))
    | Softmax_rows ->
      (* Full-width tiles (the grid guarantees clo = 0, chi = cols):
         chunked loads for pipelining, one compute pass. *)
      let action memory ~rank =
        let x = Memory.find memory ~rank ~name:g.g_gathered in
        let out = Memory.find memory ~rank ~name:co.co_out in
        Tensor.set_block out ~row_lo:lo ~col_lo:0
          (softmax_rows (Tensor.row_slice x ~lo ~hi))
      in
      List.concat
        (List.init live_chunks (fun kc ->
             let klo, khi = chunk_range kc in
             if klo >= khi then []
             else
               [
                 Primitive.Load
                   (access ~buffer:g.g_gathered ~row:(lo, hi) ~col:(klo, khi)
                      ());
               ]))
      @ [
          Primitive.Compute
            {
              label;
              cost =
                Instr.Memory_tile
                  { rows = hi - lo; cols = chi - clo; passes = 3 };
              reads =
                [
                  access ~buffer:g.g_gathered ~row:(lo, hi) ~col:(clo, chi) ();
                ];
              writes = [];
              action = Some action;
            };
        ]
  in
  {
    Block_channel.label;
    stmts =
      Primitive.Consumer_tile_wait
        { lo; hi; buffer = g.g_gathered; col = (0, g.g_cols) }
      :: body
      @ [
          Primitive.Store
            (access ~buffer:co.co_out ~row:(lo, hi) ~col:(clo, chi) ());
        ];
  }

(* Synthesis builds everything that does not depend on the rank once:
   the mapping, the grids and one lowered (and, for consumers,
   pipelined) task per tile, labels included.  Each rank then only
   instantiates the tasks it runs, in its own tile order, which resolves
   its signal targets. *)
let synthesize g cand ~spec_gpu =
  let r = g.g_world in
  let config = cand.pl_config in
  if cand.pl_chunks < 1 then
    invalid_arg "Planner.synthesize: chunks must be >= 1";
  let comm_tm = fst config.Design_space.comm_tile in
  let shard_rows = g.g_rows / r in
  if shard_rows mod comm_tm <> 0 then
    invalid_arg "Planner.synthesize: comm tile must divide the shard";
  let channels_per_rank = shard_rows / comm_tm in
  let mapping =
    Mapping.static ~extent:g.g_rows ~ranks:r ~channels_per_rank ~tile:comm_tm
      ()
  in
  let comm_grid =
    Tile.grid ~extent_m:g.g_rows ~extent_n:g.g_cols ~tile_m:comm_tm
      ~tile_n:g.g_cols
  in
  let compute_tm, compute_tn = config.Design_space.compute_tile in
  let consumer_grid co =
    match co.co_kind with
    | Gemm _ ->
      Tile.grid ~extent_m:g.g_rows ~extent_n:(out_cols g co)
        ~tile_m:compute_tm ~tile_n:compute_tn
    | Softmax_rows ->
      (* Row softmax needs whole rows in one tile. *)
      Tile.grid ~extent_m:g.g_rows ~extent_n:g.g_cols ~tile_m:compute_tm
        ~tile_n:g.g_cols
  in
  let bc = Block_channel.symbolic ~world_size:r mapping in
  let gather =
    Array.map (Block_channel.lower_task bc)
      (gather_tasks g cand ~mapping ~comm_grid)
  in
  let consumers =
    List.map
      (fun co ->
        let grid = consumer_grid co in
        let template tid =
          Pipeline.pipeline_task ~stages:config.Design_space.stages
            (Block_channel.lower_task bc
               (consumer_task g cand co ~grid (Tile.of_linear grid tid)))
        in
        (co, grid, Array.init (Tile.tile_count grid) template))
      g.g_consumers
  in
  let comm_sms =
    match config.Design_space.binding with
    | Design_space.Comm_on_sm sms -> sms
    | Design_space.Comm_on_dma -> 0
    | Design_space.Comm_hybrid { sms; _ } -> sms
  in
  let compute_sms =
    max 1 (spec_gpu.Tilelink_machine.Spec.gpu.num_sms - comm_sms)
  in
  let per_consumer_sms = max 1 (compute_sms / List.length g.g_consumers) in
  let dma =
    Program.Dma_engines (min 2 spec_gpu.Tilelink_machine.Spec.gpu.dma_channels)
  in
  let plans =
    Array.init r (fun rank ->
        let gathers =
          let tiles =
            Tile.enumerate ~rank comm_grid
              config.Design_space.comm_order
          in
          let lower tile =
            Block_channel.instantiate_task ~rank
              gather.(Tile.linearize comm_grid tile)
          in
          match cand.pl_transfer with
          | Pull -> List.map lower tiles
          | Push ->
            (* Only this rank's own shard tiles are pushed. *)
            List.filter_map
              (fun tile ->
                let tid = Tile.linearize comm_grid tile in
                if Mapping.rank_of mapping ~tid = rank then Some (lower tile)
                else None)
              tiles
        in
        let comm_roles =
          match config.Design_space.binding with
          | Design_space.Comm_on_sm sms ->
            [
              {
                Program.role_name = "gather-sm";
                resource = Program.Sm_partition sms;
                lane = Tilelink_sim.Trace.Comm_sm;
                tasks = gathers;
              };
            ]
          | Design_space.Comm_on_dma ->
            [
              {
                Program.role_name = "gather-dma";
                resource = dma;
                lane = Tilelink_sim.Trace.Dma;
                tasks = gathers;
              };
            ]
          | Design_space.Comm_hybrid { dma_fraction; sms } ->
            let dma_tasks, sm_tasks =
              split_fraction dma_fraction gathers
            in
            [
              {
                Program.role_name = "gather-dma";
                resource = dma;
                lane = Tilelink_sim.Trace.Dma;
                tasks = dma_tasks;
              };
              {
                Program.role_name = "gather-sm";
                resource = Program.Sm_partition sms;
                lane = Tilelink_sim.Trace.Comm_sm;
                tasks = sm_tasks;
              };
            ]
        in
        let consumer_roles =
          List.map
            (fun (co, grid, tasks) ->
              let lower tile =
                Block_channel.instantiate_task ~rank
                  tasks.(Tile.linearize grid tile)
              in
              {
                Program.role_name = co.co_name;
                resource = Program.Sm_partition per_consumer_sms;
                lane = Tilelink_sim.Trace.Compute_sm;
                tasks =
                  List.map lower
                    (Tile.enumerate ~rank grid
                       config.Design_space.compute_order);
              })
            consumers
        in
        comm_roles @ consumer_roles)
  in
  Program.create ~name:g.g_name ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:1 plans

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

type plan = {
  p_candidate : candidate;
  p_program : Program.t;
  p_time : float;
  p_exposed_comm_us : float option;
  p_outcome : (candidate * Program.t) Tune.outcome;
}

let search ?pool ?cache ?candidates g ~spec_gpu ~make_cluster () =
  let candidates =
    match candidates with
    | Some cs -> cs
    | None -> enumerate (default_space g)
  in
  Tune.search_planned ?pool ?cache
    ~workload:("plan:" ^ graph_fingerprint g)
    ~fingerprint
    ~config_of:(fun c -> c.pl_config)
    ~build:(fun c -> synthesize g c ~spec_gpu)
    ~make_cluster candidates
  |> Option.map (fun outcome ->
         let best = outcome.Tune.best in
         let p_candidate, p_program = best.Tune.candidate in
         {
           p_candidate;
           p_program;
           p_time = best.Tune.time;
           p_exposed_comm_us = best.Tune.exposed_comm_us;
           p_outcome = outcome;
         })
