(* Neural-network reference operators: softmax, activations, top-k, and
   both monolithic and blockwise (flash) attention.

   The blockwise attention keeps explicit online-softmax state so the
   TileLink attention kernel can consume KV tiles in any arrival order
   a schedule produces and still match the monolithic reference.  Both
   of a flash step's contractions, Q·K^T and P·V, run on the
   register-blocked kernel of [Linalg.gemm]; only the softmax
   bookkeeping between them is a scalar loop. *)

let silu x = x /. (1.0 +. exp (-.x))

let gelu x =
  0.5 *. x
  *. (1.0 +. tanh (0.7978845608028654 *. (x +. (0.044715 *. x *. x *. x))))

type activation = Silu | Gelu

let apply_activation = function Silu -> silu | Gelu -> gelu

(* Gated MLP nonlinearity: out = act(gate) * up, where [gate_up] packs
   the two halves side by side: [m, 2*i] -> [m, i]. *)
let gated_activation act gate_up =
  let two_i = Tensor.cols gate_up in
  if two_i mod 2 <> 0 then
    invalid_arg "Nn.gated_activation: odd intermediate width";
  let i = two_i / 2 in
  let gate = Tensor.col_slice gate_up ~lo:0 ~hi:i in
  let up = Tensor.col_slice gate_up ~lo:i ~hi:two_i in
  Tensor.map2 (fun g u -> apply_activation act g *. u) gate up

let softmax_rows t =
  let m = Tensor.rows t and n = Tensor.cols t in
  let out = Tensor.zeros (Shape.of_list [ m; n ]) in
  let src = Tensor.data t and dst = Tensor.data out in
  (* Same passes in the same order as the get2/set2 version this
     replaces — only the per-element index arithmetic is hoisted. *)
  for i = 0 to m - 1 do
    let row = i * n in
    let row_max = ref neg_infinity in
    for j = 0 to n - 1 do
      row_max := Float.max !row_max src.(row + j)
    done;
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      let e = exp (src.(row + j) -. !row_max) in
      dst.(row + j) <- e;
      sum := !sum +. e
    done;
    for j = 0 to n - 1 do
      dst.(row + j) <- dst.(row + j) /. !sum
    done
  done;
  out

(* Top-k per row, ties broken toward the lower index (deterministic). *)
let topk t ~k =
  let m = Tensor.rows t and n = Tensor.cols t in
  if k <= 0 || k > n then invalid_arg "Nn.topk: bad k";
  let data = Tensor.data t in
  Array.init m (fun i ->
      let row = i * n in
      let order = Array.init n (fun j -> j) in
      Array.sort
        (fun a b ->
          let va = data.(row + a) and vb = data.(row + b) in
          if va = vb then compare a b else compare vb va)
        order;
      Array.sub order 0 k)

type mask = No_mask | Causal of { q_offset : int }

let masked_score mask ~q_row ~kv_col score =
  match mask with
  | No_mask -> score
  | Causal { q_offset } ->
    if kv_col > q_row + q_offset then neg_infinity else score

(* Monolithic scaled-dot-product attention for one head:
   q : [m, d], k : [s, d], v : [s, d] -> [m, d]. *)
let attention ?(mask = No_mask) q k v =
  let m = Tensor.rows q and d = Tensor.cols q in
  let s = Tensor.rows k in
  if Tensor.cols k <> d || Tensor.cols v <> d || Tensor.rows v <> s then
    invalid_arg "Nn.attention: shape mismatch";
  let inv_sqrt_d = 1.0 /. sqrt (float_of_int d) in
  let scores = Linalg.gemm q (Tensor.transpose k) in
  let masked =
    Tensor.init (Shape.of_list [ m; s ]) (fun idx ->
        let i = idx.(0) and j = idx.(1) in
        masked_score mask ~q_row:i ~kv_col:j
          (Tensor.get2 scores i j *. inv_sqrt_d))
  in
  Linalg.gemm (softmax_rows masked) v

(* Online-softmax state for blockwise (flash) attention. *)
module Flash = struct
  type t = {
    m : int;
    d : int;
    mask : mask;
    acc : Tensor.t;          (* running (unnormalized) output [m, d] *)
    row_max : float array;   (* running max of scores per query row  *)
    row_sum : float array;   (* running sum of exp(scores - max)     *)
  }

  let create ?(mask = No_mask) ~m ~d () =
    {
      m;
      d;
      mask;
      acc = Tensor.zeros (Shape.of_list [ m; d ]);
      row_max = Array.make m neg_infinity;
      row_sum = Array.make m 0.0;
    }

  (* Consume one KV block located at absolute sequence offset
     [kv_offset].  Standard flash-attention rescaling: when the running
     max changes, previously accumulated sums and outputs are scaled by
     exp(old_max - new_max).  The scores become the probabilities P in
     place — 0.0 where masked and across rows with no unmasked score —
     and P·V is added to [acc] by the register-blocked GEMM, whose
     zero-skip drops exactly the masked entries. *)
  let update state q k_block v_block ~kv_offset =
    let m = state.m and d = state.d in
    if Tensor.rows q <> m || Tensor.cols q <> d then
      invalid_arg "Flash.update: q shape mismatch";
    let block = Tensor.rows k_block in
    if
      Tensor.cols k_block <> d
      || Tensor.rows v_block <> block
      || Tensor.cols v_block <> d
    then invalid_arg "Flash.update: kv shape mismatch";
    let inv_sqrt_d = 1.0 /. sqrt (float_of_int d) in
    let probs = Linalg.gemm q (Tensor.transpose k_block) in
    let p_data = Tensor.data probs and acc_data = Tensor.data state.acc in
    for i = 0 to m - 1 do
      let p_row = i * block and acc_row = i * d in
      (* Masked scores and their block-local max for row i. *)
      let block_max = ref neg_infinity in
      for j = 0 to block - 1 do
        let s =
          masked_score state.mask ~q_row:i ~kv_col:(kv_offset + j)
            (p_data.(p_row + j) *. inv_sqrt_d)
        in
        p_data.(p_row + j) <- s;
        block_max := Float.max !block_max s
      done;
      if !block_max > neg_infinity then begin
        let new_max = Float.max state.row_max.(i) !block_max in
        let correction =
          if state.row_max.(i) = neg_infinity then 0.0
          else exp (state.row_max.(i) -. new_max)
        in
        state.row_sum.(i) <- state.row_sum.(i) *. correction;
        for c = 0 to d - 1 do
          acc_data.(acc_row + c) <- acc_data.(acc_row + c) *. correction
        done;
        for j = 0 to block - 1 do
          let s = p_data.(p_row + j) in
          if s > neg_infinity then begin
            let p = exp (s -. new_max) in
            state.row_sum.(i) <- state.row_sum.(i) +. p;
            p_data.(p_row + j) <- p
          end
          else p_data.(p_row + j) <- 0.0
        done;
        state.row_max.(i) <- new_max
      end
      else Array.fill p_data p_row block 0.0
    done;
    ignore (Linalg.gemm ~accumulate:true ~out:state.acc probs v_block)

  let finish state =
    let m = state.m and d = state.d in
    let out = Tensor.zeros (Shape.of_list [ m; d ]) in
    let out_data = Tensor.data out and acc_data = Tensor.data state.acc in
    for i = 0 to m - 1 do
      let sum = state.row_sum.(i) in
      if sum <> 0.0 then
        for c = (i * d) to (i * d) + d - 1 do
          out_data.(c) <- acc_data.(c) /. sum
        done
    done;
    out
end

(* Convenience: full flash attention by sweeping blocks left to right —
   must equal [attention] up to float error. *)
let flash_attention ?(mask = No_mask) ?(block = 64) q k v =
  let m = Tensor.rows q and d = Tensor.cols q in
  let s = Tensor.rows k in
  let state = Flash.create ~mask ~m ~d () in
  let rec sweep offset =
    if offset < s then begin
      let hi = min s (offset + block) in
      Flash.update state q
        (Tensor.row_slice k ~lo:offset ~hi)
        (Tensor.row_slice v ~lo:offset ~hi)
        ~kv_offset:offset;
      sweep hi
    end
  in
  sweep 0;
  Flash.finish state
