(* The decoupled design space (paper §3.1).

   Communication and computation choose *independently* in three
   subspaces: tile size, tile order, resource binding.  FLUX-style
   coupled fusion corresponds to the diagonal of this space (same tile
   size, same order, comm on SMs); the paper's claim — and what the
   autotuner exploits — is that the off-diagonal contains better
   points. *)

type resource_binding =
  | Comm_on_sm of int     (* communication CTAs on this many SMs *)
  | Comm_on_dma           (* copy engine, host-triggered *)
  | Comm_hybrid of { dma_fraction : float; sms : int }
      (* bulk data on the copy engine, epilogue (e.g. reduction) on SMs *)

let resource_binding_to_string = function
  | Comm_on_sm n -> Printf.sprintf "sm(%d)" n
  | Comm_on_dma -> "dma"
  | Comm_hybrid { dma_fraction; sms } ->
    Printf.sprintf "hybrid(dma=%.0f%%,sm=%d)" (dma_fraction *. 100.0) sms

type config = {
  comm_tile : int * int;
  compute_tile : int * int;
  comm_order : Tile.order;
  compute_order : Tile.order;
  binding : resource_binding;
  stages : int;  (* software pipeline depth *)
  micro_block : int;
      (* GEMM kernel k-panel edge; 0 = one panel over the whole k.
         Bit-identical numerics either way — a pure host speed knob. *)
}

let config_to_string c =
  Printf.sprintf "comm=%dx%d %s | compute=%dx%d %s | %s | stages=%d%s"
    (fst c.comm_tile) (snd c.comm_tile)
    (Tile.order_to_string c.comm_order)
    (fst c.compute_tile) (snd c.compute_tile)
    (Tile.order_to_string c.compute_order)
    (resource_binding_to_string c.binding)
    c.stages
    (if c.micro_block = 0 then ""
     else Printf.sprintf " | mb=%d" c.micro_block)

(* Exact textual identity of a config, for evaluation-cache keys.
   [config_to_string] is for humans and rounds the hybrid DMA fraction
   to whole percent; here floats go out in hex so distinct configs
   never collide. *)
let fingerprint c =
  let binding =
    match c.binding with
    | Comm_on_sm n -> Printf.sprintf "sm:%d" n
    | Comm_on_dma -> "dma"
    | Comm_hybrid { dma_fraction; sms } ->
      Printf.sprintf "hybrid:%h:%d" dma_fraction sms
  in
  Printf.sprintf "ct=%dx%d;kt=%dx%d;co=%s;ko=%s;bind=%s;stages=%d;mb=%d"
    (fst c.comm_tile) (snd c.comm_tile) (fst c.compute_tile)
    (snd c.compute_tile)
    (Tile.order_to_string c.comm_order)
    (Tile.order_to_string c.compute_order)
    binding c.stages c.micro_block

(* FLUX-style coupled point: communication inherits everything from
   computation. *)
let coupled ~tile ~order ~comm_sms ~stages =
  {
    comm_tile = tile;
    compute_tile = tile;
    comm_order = order;
    compute_order = order;
    binding = Comm_on_sm comm_sms;
    stages;
    micro_block = 0;
  }

type space = {
  comm_tiles : (int * int) list;
  compute_tiles : (int * int) list;
  comm_orders : Tile.order list;
  compute_orders : Tile.order list;
  bindings : resource_binding list;
  stage_choices : int list;
  micro_blocks : int list;
}

let default_space ~world_size =
  {
    comm_tiles = [ (128, 128); (256, 128); (512, 128) ];
    compute_tiles = [ (128, 128); (128, 256); (256, 128) ];
    comm_orders =
      [ Tile.Row_major; Tile.Ring_from_self { segments = world_size } ];
    compute_orders =
      [ Tile.Row_major; Tile.Ring_from_self { segments = world_size } ];
    bindings =
      [
        Comm_on_sm 20;
        Comm_on_dma;
        Comm_hybrid { dma_fraction = 0.5; sms = 16 };
      ];
    stage_choices = [ 1; 2 ];
    (* [0] alone keeps the default enumeration size unchanged; the
       kernel's k-panel edge is a host speed knob that never affects
       numerics, so searching it only pays off when tuning for real
       wall-clock. *)
    micro_blocks = [ 0 ];
  }

let enumerate space =
  List.concat_map
    (fun comm_tile ->
      List.concat_map
        (fun compute_tile ->
          List.concat_map
            (fun comm_order ->
              List.concat_map
                (fun compute_order ->
                  List.concat_map
                    (fun binding ->
                      List.concat_map
                        (fun stages ->
                          List.map
                            (fun micro_block ->
                              {
                                comm_tile;
                                compute_tile;
                                comm_order;
                                compute_order;
                                binding;
                                stages;
                                micro_block;
                              })
                            space.micro_blocks)
                        space.stage_choices)
                    space.bindings)
                space.compute_orders)
            space.comm_orders)
        space.compute_tiles)
    space.comm_tiles
