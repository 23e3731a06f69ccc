(** Tile-centric mapping (f_S, f_R, f_C): static affine or dynamic
    lookup-table mappings from tile ids to shape ranges, ranks and
    barrier channels. *)

type t

val static :
  ?multiplicity:int ->
  extent:int ->
  ranks:int ->
  channels_per_rank:int ->
  tile:int ->
  unit ->
  t
(** Affine mapping for an [extent]-row tensor sharded evenly over
    [ranks], with producer tiles of [tile] rows.  Requires the shard to
    divide across channels and the tile to fit inside one channel
    segment.  [multiplicity] (default 1) scales the per-channel
    completion threshold — use it when a 2-D producer grid notifies its
    row channel once per column tile. *)

val dynamic :
  ?f_src_low:int array ->
  ranks:int ->
  channels_per_rank:int ->
  f_s_low:int array ->
  f_s_high:int array ->
  f_r:int array ->
  f_c:int array ->
  unit ->
  t
(** Lookup-table mapping (values filled at runtime by e.g. MoE
    routing); [f_c] holds global channel ids. *)

val is_dynamic : t -> bool
val num_tiles : t -> int
val num_channels : t -> int
val ranks : t -> int
val channels_per_rank : t -> int

val shape_range : t -> tid:int -> int * int
val rank_of : t -> tid:int -> int
val channel_of : t -> tid:int -> int
val split_channel : t -> int -> int * int

val global_channel : t -> rank:int -> local:int -> int
(** Inverse of [split_channel]: the global channel id of a rank-local
    [Pc] signal target under this mapping. *)

val expected : t -> channel:int -> int

val src_shard_range : t -> tid:int -> int * int
(** Shard-local rows of a producer tile on its owning rank. *)

val channels_for_range : t -> lo:int -> hi:int -> (int * int) list
(** Channels (with completion thresholds) a consumer of global rows
    [lo, hi) must wait on. *)

val channels_for_rows : t -> int list -> (int * int) list
(** Channels (with thresholds) a consumer of the scattered global
    [rows] must wait on, in channel order: the union of
    {!channels_for_range} over each single row.  Rows past a dynamic
    mapping's tables need no channel; rows outside a static mapping's
    extent raise [Invalid_argument]. *)

val ranks_for_range : t -> lo:int -> hi:int -> int list
(** Ranks owning any row of [lo, hi). *)

val remap_channels :
  ranks:int ->
  channels_per_rank:int ->
  dead:int ->
  survivors:int list ->
  int * (int -> int -> int * int)
(** The elastic-remap reroute after [dead] crashes, as
    [(new_channels_per_rank, reroute)]: [reroute rank local] moves dead
    local channel [c] to survivor [survivors.(c mod n)] at fresh local
    slot [cpr + c / n] and leaves live ranks' channels where they are;
    the stride grows to [cpr + ceil(cpr / n)].  The survivor list's
    order is preserved (intra-island-first callers rely on it).  Raises
    [Invalid_argument] on a dead rank out of range or an empty,
    duplicated, out-of-range or dead-containing survivor list. *)

val remap_rank : t -> dead:int -> survivors:int list -> t
(** Elastic remap of a mapping: every channel [dead] owned moves as
    {!remap_channels} says; per-channel completion thresholds
    (multiplicity included) transfer unchanged.  The result is always
    dynamic and keeps the original rank count — the dead rank simply
    owns no tiles.  Raises like {!remap_channels}. *)

val pp : Format.formatter -> t -> unit
