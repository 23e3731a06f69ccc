(* Tensor shapes: dimension lists with row-major stride arithmetic. *)

type t = int array

let of_list dims =
  List.iter
    (fun d -> if d < 0 then invalid_arg "Shape.of_list: negative dim")
    dims;
  Array.of_list dims

let rank (t : t) = Array.length t
let dim (t : t) i = t.(i)

let numel (t : t) = Array.fold_left ( * ) 1 t

let equal (a : t) (b : t) = a = b

let to_string (t : t) =
  "[" ^ String.concat "x" (Array.to_list (Array.map string_of_int t)) ^ "]"

(* Row-major strides: strides.(i) = product of dims after i. *)
let strides (t : t) =
  let n = rank t in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * t.(i + 1)
  done;
  s

let offset_of_index (t : t) (index : int array) =
  if Array.length index <> rank t then
    invalid_arg "Shape.offset_of_index: rank mismatch";
  let s = strides t in
  let off = ref 0 in
  Array.iteri
    (fun i x ->
      if x < 0 || x >= t.(i) then
        invalid_arg
          (Printf.sprintf "Shape.offset_of_index: index %d out of bound %d"
             x t.(i));
      off := !off + (x * s.(i)))
    index;
  !off

let index_of_offset (t : t) offset =
  if offset < 0 || offset >= numel t then
    invalid_arg "Shape.index_of_offset: out of range";
  let s = strides t in
  Array.mapi (fun i _ -> offset / s.(i) mod t.(i)) t

(* Tile arithmetic used throughout the compiler: number of tiles needed
   to cover [extent] with tiles of size [tile]. *)
let ceil_div a b =
  if b <= 0 then invalid_arg "Shape.ceil_div: non-positive divisor";
  (a + b - 1) / b

let tiles_along ~extent ~tile = ceil_div extent tile

let tile_range ~extent ~tile ~tid =
  let lo = tid * tile in
  if lo >= extent then invalid_arg "Shape.tile_range: tile out of range";
  (lo, min extent (lo + tile))
