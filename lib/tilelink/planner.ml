(* Auto-overlap planner.

   Hand-written overlapped kernels (lib/workloads) encode the Pc
   notify/wait protocol by construction; this module derives it.  An
   operator graph — one AllGather producer feeding tiled row-range
   consumers — plus one candidate point of the (decoupled design space
   x transfer direction x chunk count) space is synthesized into an
   ordinary [Program.t] using only [Primitive] statements lowered
   through a [Mapping.static]: every notify and wait in the result
   comes out of the tile-centric lowering, none is written by hand.
   The gather producer, its resource roles and the chunked GEMM
   consumer are [Overlap]'s.  The AG+GEMM kernel of [Mlp] is this
   synthesis of a one-GEMM graph, so it has no second builder.

   Candidate pruning and scoring run through [Tune.search_planned]:
   the analyzer rejects statically-broken protocols before any
   simulation (and before an entry loaded from a cache file replays),
   survivors are simulated on the bare simulator for their makespan,
   and the planner picks the makespan minimum with exposed
   communication as the tiebreak, traced only for the candidates that
   tie the best.  A survivor whose makespan lower
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

(* One consumer tile: wait for the gathered rows it reads, loop over
   [pl_chunks] column chunks of the gathered buffer, run the kind's
   compute (the data action rides on the last non-empty chunk), store
   the output tile. *)
let consumer_task g cand co ~grid tile =
  let ((lo, hi) as rows) = Tile.rows grid tile in
  let ((clo, chi) as cols) = Tile.cols grid tile in
  let label =
    Printf.sprintf "%s[%d,%d]" co.co_name tile.Tile.tid_m tile.Tile.tid_n
  in
  let body =
    match co.co_kind with
    | Gemm { weights; n = _ } ->
      Overlap.gemm_chunks ~label ~gathered:g.g_gathered ~weights ~out:co.co_out
        ~k:g.g_cols ~chunks:cand.pl_chunks
        ~micro_block:cand.pl_config.Design_space.micro_block ~rows ~cols
    | Softmax_rows ->
      (* Full-width tiles (the grid guarantees clo = 0, chi = cols):
         chunked loads for pipelining, one compute pass. *)
      let action memory ~rank =
        let x = Memory.find memory ~rank ~name:g.g_gathered in
        let out = Memory.find memory ~rank ~name:co.co_out in
        Tensor.set_block out ~row_lo:lo ~col_lo:0
          (softmax_rows (Tensor.row_slice x ~lo ~hi))
      in
      List.map
        (fun col ->
          Primitive.Load (access ~buffer:g.g_gathered ~row:rows ~col ()))
        (Overlap.chunk_ranges ~extent:g.g_cols ~chunks:cand.pl_chunks)
      @ [
          Primitive.Compute
            {
              label;
              cost =
                Instr.Memory_tile
                  { rows = hi - lo; cols = chi - clo; passes = 3 };
              reads = [ access ~buffer:g.g_gathered ~row:rows ~col:cols () ];
              writes = [];
              action = Some action;
            };
        ]
  in
  Overlap.row_consumer ~label ~gathered:g.g_gathered ~k:g.g_cols
    ~out:co.co_out ~rows ~cols body

(* Synthesis builds everything that does not depend on the rank once:
   the mapping, the grids and one lowered (and, for consumers,
   pipelined) task per tile, labels included.  Each rank then only
   instantiates the tasks it runs, in its own tile order, which resolves
   its signal targets. *)
let synthesize g cand ~spec_gpu =
  let r = g.g_world in
  let config = cand.pl_config in
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
    Overlap.gather bc ~name:"ag"
      ~transfer:(match cand.pl_transfer with Pull -> `Pull | Push -> `Push)
      ~mapping ~grid:comm_grid ~shard:g.g_shard ~gathered:g.g_gathered
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
  let plans =
    Array.init r (fun rank ->
        let comm_roles, compute_sms =
          Overlap.gather_roles ~name:"allgather" ~spec_gpu
            config.Design_space.binding
            (Overlap.gather_tasks gather ~rank config.Design_space.comm_order)
        in
        let per_consumer_sms =
          max 1 (compute_sms / List.length g.g_consumers)
        in
        let consumer_roles =
          List.map
            (fun (co, grid, templates) ->
              {
                Program.role_name = co.co_name;
                resource = Program.Sm_partition per_consumer_sms;
                lane = Tilelink_sim.Trace.Compute_sm;
                tasks =
                  Overlap.tile_tasks templates grid ~rank
                    config.Design_space.compute_order;
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
