(* Autotuning the decoupled design space: enumerate tile sizes, orders
   and resource bindings independently for communication and
   computation, simulate every candidate, and show why the decoupled
   optimum beats the coupled (FLUX-style) point.

     dune exec examples/autotune_demo.exe *)

open Tilelink_core
open Tilelink_machine
open Tilelink_workloads

let spec = Calib.h800
let world = 8

let () =
  print_endline "== Autotuning the decoupled design space ==";
  let shapes = { Mlp.m = 8192; k = 4096; n = 2752; world_size = world } in

  (* A compact slice of the full space (the complete cross product is
     Design_space.default_space). *)
  let space =
    {
      Design_space.comm_tiles = [ (128, 128); (256, 128); (512, 128) ];
      compute_tiles = [ (128, 128) ];
      comm_orders = [ Tile.Ring_from_self { segments = world } ];
      compute_orders = [ Tile.Ring_from_self { segments = world } ];
      bindings =
        [
          Design_space.Comm_on_sm 20;
          Design_space.Comm_on_dma;
          Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
        ];
      stage_choices = [ 1; 2 ];
      micro_blocks = [ 0 ];
    }
  in
  let configs = Design_space.enumerate space in
  Printf.printf "searching %d candidates for AG+GEMM (M=%d K=%d N=%d)...\n"
    (List.length configs) shapes.Mlp.m shapes.Mlp.k shapes.Mlp.n;
  match
    Tune.search_programs ~workload:"demo:ag_gemm"
      ~build:(fun config -> Mlp.ag_gemm_program ~config shapes ~spec_gpu:spec)
      ~make_cluster:(fun () -> Cluster.create spec ~world_size:world)
      configs
  with
  | None -> print_endline "no candidate built"
  | Some outcome ->
    List.iter
      (fun e ->
        Printf.printf "  %8.1f us  %s\n" e.Tune.time
          (Design_space.config_to_string e.Tune.config))
      (List.sort
         (fun a b -> compare a.Tune.time b.Tune.time)
         outcome.Tune.evaluated);
    Printf.printf "best: %.1f us with [%s] (%d evaluated, %d skipped)\n"
      outcome.Tune.best.Tune.time
      (Design_space.config_to_string outcome.Tune.best.Tune.config)
      (List.length outcome.Tune.evaluated)
      outcome.Tune.skipped;
    (* Compare against the coupled point: communication inherits the
       GEMM's tiling and runs on SMs. *)
    let coupled =
      Design_space.coupled ~tile:(128, 128)
        ~order:(Tile.Ring_from_self { segments = world })
        ~comm_sms:20 ~stages:2
    in
    let coupled_time =
      let cluster = Cluster.create spec ~world_size:world in
      (Runtime.run cluster
         (Mlp.ag_gemm_program ~config:coupled shapes ~spec_gpu:spec))
        .Runtime.makespan
    in
    Printf.printf
      "coupled (FLUX-style) point: %.1f us — decoupling wins %.1f%%\n"
      coupled_time
      ((coupled_time -. outcome.Tune.best.Tune.time)
      /. coupled_time *. 100.0)
