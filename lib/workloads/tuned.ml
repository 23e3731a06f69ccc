(* TileLink's reported numbers: the best point of the decoupled design
   space under the simulator, searched per shape.

   The candidate lists are small curated slices of the full space (the
   full cross product is searched by the [autotune] example; benches
   use these to stay fast).  Each candidate is a genuinely different
   schedule — different tile sizes, orders or resource bindings — and
   the winner differs across shapes, which is the paper's core claim
   about decoupling. *)

open Tilelink_core
open Tilelink_machine

let ag_gemm_candidates ~world_size =
  let ring = Tile.Ring_from_self { segments = world_size } in
  List.concat_map
    (fun binding ->
      List.map
        (fun comm_tm ->
          {
            Design_space.comm_tile = (comm_tm, 128);
            compute_tile = (128, 128);
            comm_order = ring;
            compute_order = ring;
            binding;
            stages = 2;
            micro_block = 0;
          })
        [ 128; 256; 512 ])
    [
      Design_space.Comm_on_dma;
      Design_space.Comm_on_sm 20;
      Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
    ]

let gemm_rs_candidates ~world_size =
  (* The GEMM produces segments in the order the ring ReduceScatter
     consumes them (rank+1 first); candidates also include the
     misaligned row-major order so the tuner demonstrates the cost of
     getting it wrong. *)
  let aligned = Tile.Ring_prev_first { segments = world_size } in
  List.concat_map
    (fun binding ->
      List.concat_map
        (fun compute_order ->
          List.map
            (fun (rs_tm, rs_tn) ->
              {
                Design_space.comm_tile = (rs_tm, rs_tn);
                compute_tile = (128, 128);
                comm_order = Tile.Row_major;
                compute_order;
                binding;
                stages = 2;
                micro_block = 0;
              })
            [ (128, 512); (128, 2048) ])
        [ aligned; Tile.Row_major ])
    [
      Design_space.Comm_on_sm 20;
      Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
    ]

type tuned = {
  best_config : Design_space.config;
  best_time : float;
  candidates_tried : int;
}

let tune_or_fail ~what outcome =
  match outcome with
  | Some o ->
    {
      best_config = o.Tune.best.Tune.config;
      best_time = o.Tune.best.Tune.time;
      candidates_tried = List.length o.Tune.evaluated;
    }
  | None -> invalid_arg (Printf.sprintf "Tuned.%s: no candidate built" what)

let ag_gemm ?pool ?cache (spec : Spec.t) ~world_size ~m ~k ~n =
  let spec_shapes = { Mlp.m; k; n; world_size } in
  tune_or_fail ~what:"ag_gemm"
    (Tune.search_programs ?pool ?cache
       ~workload:(Printf.sprintf "ag_gemm:m=%d,k=%d,n=%d" m k n)
       ~build:(fun config ->
         Mlp.ag_gemm_program ~config spec_shapes ~spec_gpu:spec)
       ~make_cluster:(fun () -> Cluster.create spec ~world_size)
       (ag_gemm_candidates ~world_size))

let gemm_rs ?pool ?cache (spec : Spec.t) ~world_size ~m ~k ~n =
  let spec_shapes = { Mlp.rs_m = m; rs_k = k; rs_n = n; rs_world = world_size } in
  tune_or_fail ~what:"gemm_rs"
    (Tune.search_programs ?pool ?cache
       ~workload:(Printf.sprintf "gemm_rs:m=%d,k=%d,n=%d" m k n)
       ~build:(fun config ->
         Mlp.gemm_rs_program ~config spec_shapes ~spec_gpu:spec)
       ~make_cluster:(fun () -> Cluster.create spec ~world_size)
       (gemm_rs_candidates ~world_size))

(* Element-wise gated activation between the MLP halves (same kernel
   for every method; shared with the baselines). *)
let activation_time (spec : Spec.t) ~m ~i =
  spec.Spec.overheads.kernel_launch
  +. Cost.memory_pass_time spec ~sms:spec.Spec.gpu.num_sms
       ~bytes:(float_of_int m *. float_of_int (3 * i) *. Cost.dtype_bytes)
