(** Dense row-major float tensors.

    Slices copy; {!blit_block} and {!add_blocks} move a block from
    tensor to tensor in place, which is what the executors' tile data
    actions run. *)

type t

val create : Shape.t -> float -> t
val zeros : Shape.t -> t
val init : Shape.t -> (int array -> float) -> t
val of_array : Shape.t -> float array -> t
val shape : t -> Shape.t
val data : t -> float array
val numel : t -> int
val copy : t -> t
val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get2 : t -> int -> int -> float
val set2 : t -> int -> int -> float -> unit
val fill : t -> float -> unit
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val add_inplace : t -> t -> unit
val blit : src:t -> dst:t -> unit
val sum : t -> float
val max_abs : t -> float

(** {2 2-D helpers} *)

val rows : t -> int
val cols : t -> int
val row_slice : t -> lo:int -> hi:int -> t
val set_row_slice : t -> lo:int -> t -> unit
val add_row_slice : t -> lo:int -> t -> unit
val col_slice : t -> lo:int -> hi:int -> t
val set_col_slice : t -> lo:int -> t -> unit
val set_block : t -> row_lo:int -> col_lo:int -> t -> unit

val blit_block :
  src:t -> rows:int * int -> cols:int * int -> dst:t -> at:int * int -> unit
(** [blit_block ~src ~rows:(lo, hi) ~cols:(clo, chi) ~dst ~at:(r, c)]
    sets [dst[r + i, c + j] <- src[lo + i, clo + j]] for the whole
    [(hi - lo) x (chi - clo)] block, one row blit at a time and with no
    intermediate tensor.  [src] and [dst] may be the same tensor with
    overlapping blocks: the result is that of copying the source block
    out first.  [Invalid_argument], before anything is written, unless
    [0 <= lo <= hi <= rows src], [0 <= clo <= chi <= cols src] and the
    destination block lies inside [dst]. *)

val add_blocks :
  t -> t -> rows:int * int -> cols:int * int -> dst:t -> at:int * int -> unit
(** [add_blocks a b ~rows ~cols ~dst ~at] is {!blit_block} of the sum:
    [dst[r + i, c + j] <- a[lo + i, clo + j] +. b[lo + i, clo + j]].
    The same block of [a] and [b] must lie inside each; [dst] may be
    either operand, overlapping or not. *)

val concat_rows : t list -> t
val transpose : t -> t

val random : seed:int -> Shape.t -> t
(** Deterministic pseudo-random tensor in [-0.5, 0.5); identical for a
    given seed on every rank, run and machine. *)

val pp : Format.formatter -> t -> unit
