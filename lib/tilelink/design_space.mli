(** The decoupled design space: independent tile sizes, tile orders and
    resource bindings for communication and computation. *)

type resource_binding =
  | Comm_on_sm of int
  | Comm_on_dma
  | Comm_hybrid of { dma_fraction : float; sms : int }

val resource_binding_to_string : resource_binding -> string

type config = {
  comm_tile : int * int;
  compute_tile : int * int;
  comm_order : Tile.order;
  compute_order : Tile.order;
  binding : resource_binding;
  stages : int;
  micro_block : int;
      (** k-panel edge of the GEMM kernel executing each compute tile
          ([Linalg.gemm_tile ~block]); [0] = one panel over the whole
          k.  Purely an execution-speed knob: every panel edge is
          bit-identical, so this subspace never changes numerics,
          only host wall-clock when tiles run on real data. *)
}

val config_to_string : config -> string

val fingerprint : config -> string
(** Exact textual identity of the config (floats in hex), for
    evaluation-cache keys; distinct configs never collide. *)

val coupled :
  tile:int * int -> order:Tile.order -> comm_sms:int -> stages:int -> config
(** The FLUX-style coupled point: communication inherits the
    computation's tiling and order. *)

type space = {
  comm_tiles : (int * int) list;
  compute_tiles : (int * int) list;
  comm_orders : Tile.order list;
  compute_orders : Tile.order list;
  bindings : resource_binding list;
  stage_choices : int list;
  micro_blocks : int list;
      (** Microkernel cache-block choices; the default space ships
          [[0]] (plain kernel only) so the enumeration size is
          unchanged — widen it to let [Tune] search block sizes. *)
}

val default_space : world_size:int -> space
val enumerate : space -> config list
