(** The overlap building blocks kernel builders share: the AllGather
    producer (Figure 3b), the k-chunked GEMM consumer and the ring
    ReduceScatter consumer (Figure 4), each written once for [Mlp],
    [Moe] and {!Planner}. *)

val dma_engines : Tilelink_machine.Spec.t -> Program.resource
(** The copy-engine pool a communication role binds to: at most two of
    the GPU's DMA channels. *)

val tile_tasks :
  Program.task array -> Tile.grid -> rank:int -> Tile.order -> Program.task list
(** [rank]'s instances of a template per tile of the grid (indexed by
    {!Tile.linearize}), in [order]. *)

(** {1 AllGather producer} *)

type transfer = [ `Pull | `Push ]

type gather
(** One lowered gather task per communication tile, built once per
    program. *)

val gather :
  Block_channel.t ->
  name:string ->
  transfer:transfer ->
  mapping:Mapping.t ->
  grid:Tile.grid ->
  shard:string ->
  gathered:string ->
  gather
(** Gather the rows of every rank's [shard] into [gathered] over the
    full width of [grid], one task per tile of [grid] (rows as
    [mapping] assigns them), lowered in the given (symbolic) context.
    Pull tasks are labelled ["name[tid]"]: the running rank fetches the
    tile and signals its own consumers.  Push tasks are
    ["name-push[tid]"]: the owner broadcasts the tile into every rank's
    [gathered] and notifies every rank. *)

val gather_tasks : gather -> rank:int -> Tile.order -> Program.task list
(** The gather tasks [rank] runs, in [order]: every tile when pulling,
    only the rank's own shard tiles when pushing. *)

val gather_roles :
  name:string ->
  spec_gpu:Tilelink_machine.Spec.t ->
  Design_space.resource_binding ->
  Program.task list ->
  Program.role list * int
(** Bind a rank's gather tasks: ["name-sm"] on an SM partition,
    ["name-dma"] on {!dma_engines}, or a hybrid that puts the first
    [truncate (dma_fraction * length tasks)] tasks on DMA and the rest
    on SMs.  Also returns the SMs left to compute (at least one). *)

(** {1 Row-range consumers of the gathered buffer} *)

val chunk_ranges : extent:int -> chunks:int -> (int * int) list
(** The non-empty column ranges of [extent] cut into [chunks] chunks of
    [ceil (extent / chunks)] columns. *)

val row_consumer :
  label:string ->
  gathered:string ->
  k:int ->
  out:string ->
  rows:int * int ->
  cols:int * int ->
  Primitive.t list ->
  Block_channel.task
(** A consumer tile: wait for rows [rows] of [gathered] (all [k]
    columns), run the body, store the [rows] x [cols] tile of [out]. *)

val gemm_chunks :
  label:string ->
  gathered:string ->
  weights:string ->
  out:string ->
  k:int ->
  chunks:int ->
  micro_block:int ->
  rows:int * int ->
  cols:int * int ->
  Primitive.t list
(** The body of a GEMM tile [out = gathered @ weights] over
    [chunk_ranges ~extent:k ~chunks]: per chunk, load both operands and
    compute (labelled [label ^ "k<chunk>"]); the data action rides on
    the last chunk. *)

(** {1 Ring ReduceScatter} *)

val ring_reduce_scatter :
  world:int ->
  grid:Tile.grid ->
  src:string ->
  reduce:string ->
  load_received:bool ->
  Block_channel.t ->
  rank:int ->
  Program.task list
(** [ring_reduce_scatter ~world ~grid ~src ~reduce ~load_received]
    renders the stage labels once; applied to a rank's context and
    rank, it lowers that rank's [world] ring stages over the tiles of
    [grid] (one rank's rows of the [src] partial): task ["rs[s<stage>,<tile>]"]
    waits for its [src] rows, adds the received sum from "rs_buffer"
    after stage 0 (loading it first when [load_received]), computes
    ["<reduce>[s<stage>,<tile>]"], then pushes the running sum to the
    previous rank through "rs_send", or stores the last stage into
    "out".  It uses [world * tile_count grid] peer channels. *)
