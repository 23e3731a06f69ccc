(* Tiles: the unit of work and synchronization.

   A tile is a rectangular block of a 2-D iteration space.  Both the
   communication and computation components of an overlapped kernel
   carve their own iteration space into tiles — with *independent* tile
   sizes and visiting orders; that independence is the decoupled design
   space of the paper (§3.1). *)

type t = { tid_m : int; tid_n : int }

(* A tiling of an [extent_m x extent_n] space into [tile_m x tile_n]
   blocks; the trailing tiles may be ragged. *)
type grid = {
  extent_m : int;
  extent_n : int;
  tile_m : int;
  tile_n : int;
}

let grid ~extent_m ~extent_n ~tile_m ~tile_n =
  if extent_m <= 0 || extent_n <= 0 then invalid_arg "Tile.grid: empty extent";
  if tile_m <= 0 || tile_n <= 0 then invalid_arg "Tile.grid: empty tile";
  { extent_m; extent_n; tile_m; tile_n }

let tiles_m g = (g.extent_m + g.tile_m - 1) / g.tile_m
let tiles_n g = (g.extent_n + g.tile_n - 1) / g.tile_n
let tile_count g = tiles_m g * tiles_n g

let rows g t =
  let lo = t.tid_m * g.tile_m in
  if lo >= g.extent_m then invalid_arg "Tile.rows: tile out of grid";
  (lo, min g.extent_m (lo + g.tile_m))

let cols g t =
  let lo = t.tid_n * g.tile_n in
  if lo >= g.extent_n then invalid_arg "Tile.cols: tile out of grid";
  (lo, min g.extent_n (lo + g.tile_n))

let linearize g t = (t.tid_m * tiles_n g) + t.tid_n

let of_linear g i =
  if i < 0 || i >= tile_count g then invalid_arg "Tile.of_linear: out of grid";
  { tid_m = i / tiles_n g; tid_n = i mod tiles_n g }

(* Tile visiting orders (§3.1, tile-order subspace).  Orders are
   expressed per rank so a schedule can, e.g., start at its own shard
   and proceed ring-wise. *)
type order =
  | Row_major
      (** tid_m outer, tid_n inner — the natural GEMM order. *)
  | Column_major
  | Ring_from_self of { segments : int }
      (** The M dimension is split into [segments] contiguous segments
          (one per rank); visiting starts at the caller's own segment
          and walks segments in increasing-rank ring order, row-major
          inside each segment. *)
  | Ring_prev_first of { segments : int }
      (** Like [Ring_from_self] but starting at [rank + 1], the order a
          ring ReduceScatter consumes partial sums in. *)

let order_to_string = function
  | Row_major -> "row-major"
  | Column_major -> "column-major"
  | Ring_from_self { segments } -> Printf.sprintf "ring-self(%d)" segments
  | Ring_prev_first { segments } -> Printf.sprintf "ring-next(%d)" segments

(* Enumerate all tiles of [g] in the given order for [rank]. *)
let enumerate ?(rank = 0) g order =
  let tm = tiles_m g and tn = tiles_n g in
  match order with
  | Row_major ->
    List.init (tm * tn) (fun i -> of_linear g i)
  | Column_major ->
    List.concat
      (List.init tn (fun n ->
           List.init tm (fun m -> { tid_m = m; tid_n = n })))
  | Ring_from_self { segments } | Ring_prev_first { segments } ->
    if tm mod segments <> 0 then
      invalid_arg "Tile.enumerate: segments must divide tile rows";
    let per_segment = tm / segments in
    let start =
      match order with
      | Ring_from_self _ -> rank mod segments
      | _ -> (rank + 1) mod segments
    in
    List.concat
      (List.init segments (fun step ->
           let segment = (start + step) mod segments in
           List.concat
             (List.init per_segment (fun dm ->
                  List.init tn (fun n ->
                      { tid_m = (segment * per_segment) + dm; tid_n = n })))))
