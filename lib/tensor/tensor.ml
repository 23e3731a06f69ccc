(* Dense row-major float tensors.

   Deliberately simple: contiguous [float array] storage and copying
   slices.  The executors' per-tile data actions, which run once per
   tile and ring stage, use the in-place block moves instead. *)

type t = { shape : Shape.t; data : float array }

let create shape value = { shape; data = Array.make (Shape.numel shape) value }

let zeros shape = create shape 0.0

let init shape f =
  let strides = Shape.strides shape in
  let rank = Shape.rank shape in
  let data =
    Array.init (Shape.numel shape) (fun off ->
        f (Array.init rank (fun i -> off / strides.(i) mod shape.(i))))
  in
  { shape; data }

let shape t = t.shape
let data t = t.data
let copy t = { t with data = Array.copy t.data }

let get t index = t.data.(Shape.offset_of_index t.shape index)
let set t index v = t.data.(Shape.offset_of_index t.shape index) <- v

let get2 t i j = get t [| i; j |]
let set2 t i j v = set t [| i; j |] v

let map f t = { t with data = Array.map f t.data }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.map2: shape mismatch";
  { a with data = Array.map2 f a.data b.data }

let add = map2 ( +. )
let scale k = map (fun x -> k *. x)

let add_inplace dst src =
  if not (Shape.equal dst.shape src.shape) then
    invalid_arg "Tensor.add_inplace: shape mismatch";
  Array.iteri (fun i v -> dst.data.(i) <- dst.data.(i) +. v) src.data

(* 2-D helpers: the overlapped kernels are all matrix-shaped, so row
   slicing gets dedicated fast paths. *)

let rows t =
  if Shape.rank t.shape <> 2 then invalid_arg "Tensor.rows: rank <> 2";
  Shape.dim t.shape 0

let cols t =
  if Shape.rank t.shape <> 2 then invalid_arg "Tensor.cols: rank <> 2";
  Shape.dim t.shape 1

let row_slice t ~lo ~hi =
  let m = rows t and n = cols t in
  if lo < 0 || hi > m || lo > hi then
    invalid_arg "Tensor.row_slice: bad range";
  let out = zeros (Shape.of_list [ hi - lo; n ]) in
  Array.blit t.data (lo * n) out.data 0 ((hi - lo) * n);
  out

let set_row_slice t ~lo src =
  let n = cols t in
  if cols src <> n then invalid_arg "Tensor.set_row_slice: width mismatch";
  if lo < 0 || lo + rows src > rows t then
    invalid_arg "Tensor.set_row_slice: bad range";
  Array.blit src.data 0 t.data (lo * n) (Array.length src.data)

let add_row_slice t ~lo src =
  let n = cols t in
  if cols src <> n then invalid_arg "Tensor.add_row_slice: width mismatch";
  if lo < 0 || lo + rows src > rows t then
    invalid_arg "Tensor.add_row_slice: bad range";
  let base = lo * n in
  Array.iteri
    (fun i v -> t.data.(base + i) <- t.data.(base + i) +. v)
    src.data

let col_slice t ~lo ~hi =
  let m = rows t and n = cols t in
  if lo < 0 || hi > n || lo > hi then
    invalid_arg "Tensor.col_slice: bad range";
  let w = hi - lo in
  let out = zeros (Shape.of_list [ m; w ]) in
  for i = 0 to m - 1 do
    Array.blit t.data ((i * n) + lo) out.data (i * w) w
  done;
  out

let set_block t ~row_lo ~col_lo src =
  let n = cols t in
  let w = cols src in
  if col_lo < 0 || col_lo + w > n then
    invalid_arg "Tensor.set_block: bad column range";
  if row_lo < 0 || row_lo + rows src > rows t then
    invalid_arg "Tensor.set_block: bad row range";
  for i = 0 to rows src - 1 do
    Array.blit src.data (i * w) t.data (((row_lo + i) * n) + col_lo) w
  done

(* Block-to-block moves with no intermediate tensor.  Both check the
   source block [rows x cols] inside [src] and the destination block at
   [at] inside [dst] before writing anything, then hand [move_row] each
   source row index with the offset of its destination row.  When [dst]
   is a source tensor and the destination lies after the source in
   row-major order, rows (and, in [add_blocks], columns) run backwards,
   so every source element is read before the overlap overwrites it. *)
let move_block name ~src ~rows:(lo, hi) ~cols:(clo, chi) ~dst ~at:(r, c)
    ~aliased move_row =
  if lo < 0 || lo > hi || hi > rows src then
    invalid_arg (name ^ ": bad source row range");
  if clo < 0 || clo > chi || chi > cols src then
    invalid_arg (name ^ ": bad source column range");
  let h = hi - lo and w = chi - clo in
  if r < 0 || r + h > rows dst then invalid_arg (name ^ ": bad row range");
  if c < 0 || c + w > cols dst then invalid_arg (name ^ ": bad column range");
  let nd = cols dst in
  let backward = aliased && (r > lo || (r = lo && c > clo)) in
  let row i = move_row ~row:(lo + i) ~d:(((r + i) * nd) + c) ~w ~backward in
  if backward then
    for i = h - 1 downto 0 do
      row i
    done
  else
    for i = 0 to h - 1 do
      row i
    done

let blit_block ~src ~rows ~cols:((clo, _) as col_range) ~dst ~at =
  let ns = cols src in
  move_block "Tensor.blit_block" ~src ~rows ~cols:col_range ~dst ~at
    ~aliased:(src.data == dst.data) (fun ~row ~d ~w ~backward:_ ->
      Array.blit src.data ((row * ns) + clo) dst.data d w)

let add_blocks a b ~rows:((_, hi) as row_range)
    ~cols:((clo, chi) as col_range) ~dst ~at =
  if hi > rows b || chi > cols b then
    invalid_arg "Tensor.add_blocks: bad second operand range";
  let ad = a.data and bd = b.data and dd = dst.data in
  let na = cols a and nb = cols b in
  move_block "Tensor.add_blocks" ~src:a ~rows:row_range ~cols:col_range ~dst
    ~at ~aliased:(ad == dd || bd == dd) (fun ~row ~d ~w ~backward ->
      let sa = (row * na) + clo and sb = (row * nb) + clo in
      let add j =
        Array.unsafe_set dd (d + j)
          (Array.unsafe_get ad (sa + j) +. Array.unsafe_get bd (sb + j))
      in
      if backward then
        for j = w - 1 downto 0 do
          add j
        done
      else
        for j = 0 to w - 1 do
          add j
        done)

let concat_rows = function
  | [] -> invalid_arg "Tensor.concat_rows: empty"
  | first :: _ as ts ->
    let n = cols first in
    List.iter
      (fun t ->
        if cols t <> n then invalid_arg "Tensor.concat_rows: width mismatch")
      ts;
    let m = List.fold_left (fun acc t -> acc + rows t) 0 ts in
    let out = zeros (Shape.of_list [ m; n ]) in
    let lo = ref 0 in
    List.iter
      (fun t ->
        set_row_slice out ~lo:!lo t;
        lo := !lo + rows t)
      ts;
    out

let transpose t =
  let m = rows t and n = cols t in
  let out = zeros (Shape.of_list [ n; m ]) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      out.data.((j * m) + i) <- t.data.((i * n) + j)
    done
  done;
  out

(* Deterministic pseudo-random filling: splitmix64-style hash of the
   flat offset and a seed, mapped into [-0.5, 0.5).  Tensors generated
   this way are identical across ranks, runs, and machines. *)
let hash_float ~seed off =
  let z = ref (Int64.of_int ((off * 2654435761) + (seed * 40503) + 1)) in
  z := Int64.mul !z 0x9E3779B97F4A7C15L;
  z := Int64.logxor !z (Int64.shift_right_logical !z 30);
  z := Int64.mul !z 0xBF58476D1CE4E5B9L;
  z := Int64.logxor !z (Int64.shift_right_logical !z 27);
  z := Int64.mul !z 0x94D049BB133111EBL;
  z := Int64.logxor !z (Int64.shift_right_logical !z 31);
  let mantissa = Int64.to_float (Int64.logand !z 0xFFFFFFFFL) in
  (mantissa /. 4294967296.0) -. 0.5

let random ~seed shape =
  {
    shape;
    data = Array.init (Shape.numel shape) (fun off -> hash_float ~seed off);
  }
