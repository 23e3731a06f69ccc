(** Tensor shapes: dimension arrays with row-major stride arithmetic. *)

type t = int array

val of_list : int list -> t
val rank : t -> int
val dim : t -> int -> int
val numel : t -> int
val equal : t -> t -> bool
val to_string : t -> string

val strides : t -> int array
(** Row-major strides. *)

val offset_of_index : t -> int array -> int
val index_of_offset : t -> int -> int array

val tiles_along : extent:int -> tile:int -> int
(** Number of tiles of size [tile] covering [extent]. *)

val tile_range : extent:int -> tile:int -> tid:int -> int * int
(** Half-open row range [lo, hi) of tile [tid]; the last tile may be
    ragged. *)
