(** Tiles: the unit of work and synchronization, with independent
    grids and visiting orders for communication and computation. *)

type t = { tid_m : int; tid_n : int }

type grid = {
  extent_m : int;
  extent_n : int;
  tile_m : int;
  tile_n : int;
}

val grid : extent_m:int -> extent_n:int -> tile_m:int -> tile_n:int -> grid
val tiles_m : grid -> int
val tiles_n : grid -> int
val tile_count : grid -> int

val rows : grid -> t -> int * int
(** Half-open row range covered by the tile (ragged at the edge). *)

val cols : grid -> t -> int * int
val linearize : grid -> t -> int
val of_linear : grid -> int -> t

type order =
  | Row_major
  | Column_major
  | Ring_from_self of { segments : int }
  | Ring_prev_first of { segments : int }

val order_to_string : order -> string

val enumerate : ?rank:int -> grid -> order -> t list
(** All tiles of the grid in the given visiting order for [rank]. *)
