(* Dense linear algebra: GEMM, batched GEMM, grouped GEMM.

   These are the reference kernels that both sides of every correctness
   test share: the overlapped tile programs must reproduce exactly what
   these plain loops compute.

   Two implementations of the same contraction live here.  [gemm_naive]
   is the fully bounds-checked textbook loop and is the bit-level
   ground truth.  [gemm] and [gemm_tile] validate shapes once at entry
   and then run one unchecked register-blocked kernel over strided
   views (an array, an offset and a row stride for each of A, B and
   C).  The kernel keeps a 2-row x 4-column block of C in local floats
   for a whole k-panel and reads B's 4-column strip from a packed copy,
   yet performs, for every output element, the *same additions in the
   same order* as the naive loop, with the same per-(i, k) zero-skip.
   Bit-identity between the two (and hence between every k-panel
   edge) is what lets the autotuner treat [~block] as a pure speed
   knob, and what lets tile actions multiply in place with
   [gemm_tile] instead of copying operands in and the result out. *)

let gemm_naive ?(accumulate = false) ?(out : Tensor.t option) a b =
  let m = Tensor.rows a and k = Tensor.cols a in
  if Tensor.rows b <> k then invalid_arg "Linalg.gemm: inner dim mismatch";
  let n = Tensor.cols b in
  let c =
    match out with
    | Some c ->
      if Tensor.rows c <> m || Tensor.cols c <> n then
        invalid_arg "Linalg.gemm: output shape mismatch";
      c
    | None -> Tensor.zeros (Shape.of_list [ m; n ])
  in
  let a_data = Tensor.data a
  and b_data = Tensor.data b
  and c_data = Tensor.data c in
  (* i-k-j loop order keeps the inner loop streaming over rows of b. *)
  for i = 0 to m - 1 do
    if not accumulate then
      Array.fill c_data (i * n) n 0.0;
    for kk = 0 to k - 1 do
      let aik = a_data.((i * k) + kk) in
      if aik <> 0.0 then begin
        let b_row = kk * n in
        let c_row = i * n in
        for j = 0 to n - 1 do
          c_data.(c_row + j) <-
            c_data.(c_row + j) +. (aik *. b_data.(b_row + j))
        done
      end
    done
  done;
  c

(* Register tile: two rows [ai0], [ai1] of A against a 4-column strip
   of B over the k-panel [k0, k1), accumulated into C at [ci0], [ci1].
   The strip is read from [p] at [po], [ps] floats per k step: the
   packed strip ([ps = 4]) or B itself ([ps] = B's row stride).  The
   eight C values stay in local floats for the whole panel; each
   update is [c +. (a *. b)] in ascending k, skipped when [a = 0.0]
   (so also for [-0.0]) — exactly the naive loop's additions. *)
let row_pair a ~ai0 ~ai1 p ~po ~ps c ~ci0 ~ci1 ~k0 ~k1 =
  let c00 = ref (Array.unsafe_get c ci0)
  and c01 = ref (Array.unsafe_get c (ci0 + 1))
  and c02 = ref (Array.unsafe_get c (ci0 + 2))
  and c03 = ref (Array.unsafe_get c (ci0 + 3))
  and c10 = ref (Array.unsafe_get c ci1)
  and c11 = ref (Array.unsafe_get c (ci1 + 1))
  and c12 = ref (Array.unsafe_get c (ci1 + 2))
  and c13 = ref (Array.unsafe_get c (ci1 + 3)) in
  let q = ref po in
  for kk = k0 to k1 - 1 do
    let x0 = Array.unsafe_get a (ai0 + kk)
    and x1 = Array.unsafe_get a (ai1 + kk) in
    let y0 = Array.unsafe_get p !q
    and y1 = Array.unsafe_get p (!q + 1)
    and y2 = Array.unsafe_get p (!q + 2)
    and y3 = Array.unsafe_get p (!q + 3) in
    if x0 <> 0.0 then begin
      c00 := !c00 +. (x0 *. y0);
      c01 := !c01 +. (x0 *. y1);
      c02 := !c02 +. (x0 *. y2);
      c03 := !c03 +. (x0 *. y3)
    end;
    if x1 <> 0.0 then begin
      c10 := !c10 +. (x1 *. y0);
      c11 := !c11 +. (x1 *. y1);
      c12 := !c12 +. (x1 *. y2);
      c13 := !c13 +. (x1 *. y3)
    end;
    q := !q + ps
  done;
  Array.unsafe_set c ci0 !c00;
  Array.unsafe_set c (ci0 + 1) !c01;
  Array.unsafe_set c (ci0 + 2) !c02;
  Array.unsafe_set c (ci0 + 3) !c03;
  Array.unsafe_set c ci1 !c10;
  Array.unsafe_set c (ci1 + 1) !c11;
  Array.unsafe_set c (ci1 + 2) !c12;
  Array.unsafe_set c (ci1 + 3) !c13

(* [row_pair] for a lone row: the odd last row, or m = 1. *)
let row_one a ~ai p ~po ~ps c ~ci ~k0 ~k1 =
  let c0 = ref (Array.unsafe_get c ci)
  and c1 = ref (Array.unsafe_get c (ci + 1))
  and c2 = ref (Array.unsafe_get c (ci + 2))
  and c3 = ref (Array.unsafe_get c (ci + 3)) in
  let q = ref po in
  for kk = k0 to k1 - 1 do
    let x = Array.unsafe_get a (ai + kk) in
    if x <> 0.0 then begin
      c0 := !c0 +. (x *. Array.unsafe_get p !q);
      c1 := !c1 +. (x *. Array.unsafe_get p (!q + 1));
      c2 := !c2 +. (x *. Array.unsafe_get p (!q + 2));
      c3 := !c3 +. (x *. Array.unsafe_get p (!q + 3))
    end;
    q := !q + ps
  done;
  Array.unsafe_set c ci !c0;
  Array.unsafe_set c (ci + 1) !c1;
  Array.unsafe_set c (ci + 2) !c2;
  Array.unsafe_set c (ci + 3) !c3

(* One C element, for the n mod 4 columns right of the last strip. *)
let elem_one a ~ai b ~bj ~ldb c ~ci ~k0 ~k1 =
  let acc = ref (Array.unsafe_get c ci) in
  for kk = k0 to k1 - 1 do
    let x = Array.unsafe_get a (ai + kk) in
    if x <> 0.0 then
      acc := !acc +. (x *. Array.unsafe_get b (bj + (kk * ldb)))
  done;
  Array.unsafe_set c ci !acc

(* C[m x n] += A[m x k] * B[k x n] over strided views: row i of A
   starts at [ao + i * lda], row kk of B at [bo + kk * ldb], row i of C
   at [co + i * ldc].  The caller has checked every index in bounds.
   [block > 0] splits k into ascending panels of that edge, storing the
   C block and reloading it between panels, so per element the
   additions and their order are the same for every [block].  The
   packed strip is allocated per call — two domains run this kernel at
   once — and skipped for m < 2, which has no row pair to amortise the
   copy over. *)
let kernel ~a ~ao ~lda ~b ~bo ~ldb ~c ~co ~ldc ~m ~n ~k ~block =
  let panel = if block > 0 then min block k else k in
  let strips = n / 4 in
  let packed = m >= 2 in
  let pack =
    if packed && strips > 0 then Array.create_float (4 * panel) else [||]
  in
  let next = ref 0 in
  while !next < k do
    let k0 = !next in
    let k1 = min k (k0 + panel) in
    for s = 0 to strips - 1 do
      let j = 4 * s in
      if packed then begin
        for kk = k0 to k1 - 1 do
          let src = bo + (kk * ldb) + j and dst = 4 * (kk - k0) in
          Array.unsafe_set pack dst (Array.unsafe_get b src);
          Array.unsafe_set pack (dst + 1) (Array.unsafe_get b (src + 1));
          Array.unsafe_set pack (dst + 2) (Array.unsafe_get b (src + 2));
          Array.unsafe_set pack (dst + 3) (Array.unsafe_get b (src + 3))
        done;
        let i = ref 0 in
        while !i + 1 < m do
          let i0 = !i in
          row_pair a ~ai0:(ao + (i0 * lda)) ~ai1:(ao + ((i0 + 1) * lda)) pack
            ~po:0 ~ps:4 c
            ~ci0:(co + (i0 * ldc) + j)
            ~ci1:(co + ((i0 + 1) * ldc) + j)
            ~k0 ~k1;
          i := i0 + 2
        done;
        if !i < m then
          row_one a ~ai:(ao + (!i * lda)) pack ~po:0 ~ps:4 c
            ~ci:(co + (!i * ldc) + j) ~k0 ~k1
      end
      else if m = 1 then
        row_one a ~ai:ao b ~po:(bo + (k0 * ldb) + j) ~ps:ldb c ~ci:(co + j)
          ~k0 ~k1
    done;
    for j = 4 * strips to n - 1 do
      for i = 0 to m - 1 do
        elem_one a ~ai:(ao + (i * lda)) b ~bj:(bo + j) ~ldb c
          ~ci:(co + (i * ldc) + j) ~k0 ~k1
      done
    done;
    next := k1
  done

let gemm ?(accumulate = false) ?(out : Tensor.t option) ?(block = 0) a b =
  let m = Tensor.rows a and k = Tensor.cols a in
  if Tensor.rows b <> k then invalid_arg "Linalg.gemm: inner dim mismatch";
  let n = Tensor.cols b in
  let c =
    match out with
    | Some c ->
      if Tensor.rows c <> m || Tensor.cols c <> n then
        invalid_arg "Linalg.gemm: output shape mismatch";
      c
    | None -> Tensor.zeros (Shape.of_list [ m; n ])
  in
  let a_data = Tensor.data a
  and b_data = Tensor.data b
  and c_data = Tensor.data c in
  (* One validation pass makes every unsafe access below in-bounds. *)
  if
    Array.length a_data < m * k
    || Array.length b_data < k * n
    || Array.length c_data < m * n
  then invalid_arg "Linalg.gemm: backing store shorter than shape";
  if not accumulate then Array.fill c_data 0 (m * n) 0.0;
  kernel ~a:a_data ~ao:0 ~lda:k ~b:b_data ~bo:0 ~ldb:n ~c:c_data ~co:0 ~ldc:n
    ~m ~n ~k ~block;
  c

let gemm_tile ~(out : Tensor.t) ~rows:(lo, hi) ~cols:(clo, chi) ?(block = 0) a
    b =
  let k = Tensor.cols a in
  if Tensor.rows b <> k then invalid_arg "Linalg.gemm_tile: inner dim mismatch";
  let ldb = Tensor.cols b and ldc = Tensor.cols out in
  if lo < 0 || lo > hi || hi > Tensor.rows a || hi > Tensor.rows out then
    invalid_arg "Linalg.gemm_tile: bad row range";
  if clo < 0 || clo > chi || chi > ldb || chi > ldc then
    invalid_arg "Linalg.gemm_tile: bad column range";
  let a_data = Tensor.data a
  and b_data = Tensor.data b
  and c_data = Tensor.data out in
  if
    Array.length a_data < Tensor.rows a * k
    || Array.length b_data < k * ldb
    || Array.length c_data < Tensor.rows out * ldc
  then invalid_arg "Linalg.gemm_tile: backing store shorter than shape";
  let m = hi - lo and n = chi - clo in
  for i = lo to hi - 1 do
    Array.fill c_data ((i * ldc) + clo) n 0.0
  done;
  kernel ~a:a_data ~ao:(lo * k) ~lda:k ~b:b_data ~bo:clo ~ldb ~c:c_data
    ~co:((lo * ldc) + clo) ~ldc ~m ~n ~k ~block

(* C[g] = A[g] * B[g] where the groups may have different row counts
   but share K and N — the Group GEMM of MoE layers. *)
let group_gemm groups =
  List.map (fun (a, b) -> gemm a b) groups

(* Batched GEMM over a leading batch dimension: a : [B, M, K],
   b : [B, K, N] -> [B, M, N]. *)
let batch_gemm a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  if Shape.rank sa <> 3 || Shape.rank sb <> 3 then
    invalid_arg "Linalg.batch_gemm: rank <> 3";
  let batches = Shape.dim sa 0 in
  if Shape.dim sb 0 <> batches then
    invalid_arg "Linalg.batch_gemm: batch mismatch";
  let m = Shape.dim sa 1 and k = Shape.dim sa 2 in
  if Shape.dim sb 1 <> k then
    invalid_arg "Linalg.batch_gemm: inner dim mismatch";
  let n = Shape.dim sb 2 in
  let out = Tensor.zeros (Shape.of_list [ batches; m; n ]) in
  (* Each batch is a strided view at its offset; tensors hold exactly
     [numel] floats, so every view is in bounds. *)
  for batch = 0 to batches - 1 do
    kernel ~a:(Tensor.data a) ~ao:(batch * m * k) ~lda:k ~b:(Tensor.data b)
      ~bo:(batch * k * n) ~ldb:n ~c:(Tensor.data out) ~co:(batch * m * n)
      ~ldc:n ~m ~n ~k ~block:0
  done;
  out

let matvec a x =
  let m = Tensor.rows a and k = Tensor.cols a in
  if Tensor.numel x <> k then invalid_arg "Linalg.matvec: size mismatch";
  let a_data = Tensor.data a and x_data = Tensor.data x in
  Tensor.of_array (Shape.of_list [ m ])
    (Array.init m (fun i ->
         let acc = ref 0.0 in
         for kk = 0 to k - 1 do
           acc := !acc +. (a_data.((i * k) + kk) *. x_data.(kk))
         done;
         !acc))

(* FLOP counts used by the cost model; kept next to the kernels so the
   two can never drift apart. *)
let gemm_flops ~m ~n ~k = 2.0 *. float_of_int m *. float_of_int n *. float_of_int k

let attention_flops ~batch_heads ~q_len ~kv_len ~head_dim =
  (* QK^T and PV, both [q_len, kv_len] x head_dim. *)
  4.0
  *. float_of_int batch_heads
  *. float_of_int q_len
  *. float_of_int kv_len
  *. float_of_int head_dim
