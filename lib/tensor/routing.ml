(* MoE token routing.

   Dynamic routing decides, per token, which [topk] experts process it.
   The result both drives the reference MoE computation and fills the
   dynamic lookup tables (f_S/f_R/f_C) of TileLink's backend mapping. *)

type t = {
  num_tokens : int;
  num_experts : int;
  topk : int;
  expert_ids : int array array;   (* [token] -> topk expert ids *)
  gate_weights : float array array; (* [token] -> softmaxed topk weights *)
}

let num_tokens t = t.num_tokens
let num_experts t = t.num_experts
let topk t = t.topk
let experts_of_token t token = t.expert_ids.(token)
let weights_of_token t token = t.gate_weights.(token)

(* Route from gate logits [tokens, experts]. *)
let of_logits logits ~topk =
  let num_tokens = Tensor.rows logits and num_experts = Tensor.cols logits in
  if topk <= 0 || topk > num_experts then invalid_arg "Routing.of_logits";
  let expert_ids = Nn.topk logits ~k:topk in
  let gate_weights =
    Array.init num_tokens (fun token ->
        let raw =
          Array.map
            (fun e -> Tensor.get2 logits token e)
            expert_ids.(token)
        in
        let m = Array.fold_left Float.max neg_infinity raw in
        let exps = Array.map (fun x -> exp (x -. m)) raw in
        let sum = Array.fold_left ( +. ) 0.0 exps in
        Array.map (fun e -> e /. sum) exps)
  in
  { num_tokens; num_experts; topk; expert_ids; gate_weights }

let random ~seed ~num_tokens ~num_experts ~topk =
  let logits =
    Tensor.random ~seed (Shape.of_list [ num_tokens; num_experts ])
  in
  of_logits logits ~topk

(* Tokens assigned to each expert, in (token, slot) order where slot is
   the position among the token's topk choices.  This is the "sorted by
   expert" layout that grouped GEMM consumes. *)
let tokens_of_expert t expert =
  let acc = ref [] in
  for token = t.num_tokens - 1 downto 0 do
    Array.iteri
      (fun slot e -> if e = expert then acc := (token, slot) :: !acc)
      t.expert_ids.(token)
  done;
  !acc

let expert_load t =
  let load = Array.make t.num_experts 0 in
  Array.iter
    (fun ids -> Array.iter (fun e -> load.(e) <- load.(e) + 1) ids)
    t.expert_ids;
  load

(* Flat permutation view: entry i of the permuted activation matrix is
   (expert, token, slot), grouped by expert.  [segment_offsets] gives
   each expert's start row in the permuted matrix (length E+1). *)
type permutation = {
  entries : (int * int * int) array; (* expert, token, slot *)
  segment_offsets : int array;
}

(* One counting pass: each expert's segment starts at the running sum
   of [expert_load], and tokens are placed in ascending order, so every
   segment lists its (token, slot) pairs as [tokens_of_expert] does. *)
let permutation t =
  let load = expert_load t in
  let segment_offsets = Array.make (t.num_experts + 1) 0 in
  for e = 0 to t.num_experts - 1 do
    segment_offsets.(e + 1) <- segment_offsets.(e) + load.(e)
  done;
  let next = Array.sub segment_offsets 0 t.num_experts in
  let entries = Array.make segment_offsets.(t.num_experts) (0, 0, 0) in
  Array.iteri
    (fun token ids ->
      Array.iteri
        (fun slot e ->
          entries.(next.(e)) <- (e, token, slot);
          next.(e) <- next.(e) + 1)
        ids)
    t.expert_ids;
  { entries; segment_offsets }
