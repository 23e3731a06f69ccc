(* Tests for the dense tensor substrate. *)

open Tilelink_tensor

let check_float = Alcotest.(check (float 1e-9))
let shape = Shape.of_list

let of_array s values =
  Tensor.init s (fun idx -> values.(Shape.offset_of_index s idx))

let sum t = Array.fold_left ( +. ) 0.0 (Tensor.data t)

let max_abs t =
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 (Tensor.data t)

let tensor_close ?(atol = 1e-9) msg expected actual =
  let report = Check.compare ~atol expected actual in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s)" msg
       (Format.asprintf "%a" Check_report.pp report))
    true report.Check.within

(* ------------------------------------------------------------------ *)
(* Shape                                                               *)
(* ------------------------------------------------------------------ *)

let test_shape_basics () =
  let s = shape [ 2; 3; 4 ] in
  Alcotest.(check int) "numel" 24 (Shape.numel s);
  Alcotest.(check int) "rank" 3 (Shape.rank s);
  Alcotest.(check (list int)) "strides" [ 12; 4; 1 ]
    (Array.to_list (Shape.strides s));
  Alcotest.(check int) "offset" 17
    (Shape.offset_of_index s [| 1; 1; 1 |]);
  Alcotest.(check (list int)) "roundtrip" [ 1; 1; 1 ]
    (Array.to_list (Shape.index_of_offset s 17))

let test_shape_tiles () =
  Alcotest.(check int) "even" 4 (Shape.tiles_along ~extent:16 ~tile:4);
  Alcotest.(check int) "ragged" 5 (Shape.tiles_along ~extent:17 ~tile:4);
  Alcotest.(check (pair int int)) "interior" (4, 8)
    (Shape.tile_range ~extent:17 ~tile:4 ~tid:1);
  Alcotest.(check (pair int int)) "ragged tail" (16, 17)
    (Shape.tile_range ~extent:17 ~tile:4 ~tid:4)

let prop_offset_roundtrip =
  QCheck.Test.make ~name:"offset/index roundtrip" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 4) (int_range 1 6))
    (fun dims ->
      let s = Shape.of_list dims in
      let n = Shape.numel s in
      let ok = ref true in
      for off = 0 to n - 1 do
        if Shape.offset_of_index s (Shape.index_of_offset s off) <> off then
          ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Tensor                                                              *)
(* ------------------------------------------------------------------ *)

let test_tensor_init_get_set () =
  let t = Tensor.init (shape [ 2; 3 ]) (fun i -> float_of_int ((i.(0) * 10) + i.(1))) in
  check_float "init value" 12.0 (Tensor.get2 t 1 2);
  Tensor.set2 t 1 2 99.0;
  check_float "after set" 99.0 (Tensor.get2 t 1 2)

let test_tensor_row_ops () =
  let t = Tensor.init (shape [ 4; 3 ]) (fun i -> float_of_int ((i.(0) * 3) + i.(1))) in
  let s = Tensor.row_slice t ~lo:1 ~hi:3 in
  Alcotest.(check int) "slice rows" 2 (Tensor.rows s);
  check_float "slice content" 5.0 (Tensor.get2 s 0 2);
  let dst = Tensor.zeros (shape [ 4; 3 ]) in
  Tensor.set_row_slice dst ~lo:2 s;
  check_float "set_row_slice" 5.0 (Tensor.get2 dst 2 2);
  Tensor.add_row_slice dst ~lo:2 s;
  check_float "add_row_slice doubles" 10.0 (Tensor.get2 dst 2 2)

let test_tensor_col_and_block () =
  let t = Tensor.init (shape [ 3; 4 ]) (fun i -> float_of_int ((i.(0) * 4) + i.(1))) in
  let c = Tensor.col_slice t ~lo:1 ~hi:3 in
  Alcotest.(check int) "col slice width" 2 (Tensor.cols c);
  check_float "col slice content" 6.0 (Tensor.get2 c 1 1);
  let b = Tensor.zeros (shape [ 2; 2 ]) in
  Tensor.blit_block ~src:t ~rows:(1, 3) ~cols:(2, 4) ~dst:b ~at:(0, 0);
  check_float "block content" 11.0 (Tensor.get2 b 1 1);
  let dst = Tensor.zeros (shape [ 3; 4 ]) in
  Tensor.set_block dst ~row_lo:0 ~col_lo:1 b;
  check_float "set_block" 11.0 (Tensor.get2 dst 1 2);
  Tensor.add_blocks dst dst ~rows:(1, 2) ~cols:(2, 3) ~dst ~at:(1, 2);
  check_float "add_blocks doubles" 22.0 (Tensor.get2 dst 1 2)

(* The composition [Dataop.copy_action] and the ring ReduceScatter ran
   before [blit_block] and [add_blocks]: copy the source block out
   ([row_slice] then [col_slice]), add, then [set_block] it. *)
let old_block t ~rows:(lo, hi) ~cols:(clo, chi) =
  Tensor.col_slice (Tensor.row_slice t ~lo ~hi) ~lo:clo ~hi:chi

let old_blit ~src ~rows ~cols ~dst ~at:(r, c) =
  Tensor.set_block dst ~row_lo:r ~col_lo:c (old_block src ~rows ~cols)

let old_add a b ~rows ~cols ~dst ~at:(r, c) =
  Tensor.set_block dst ~row_lo:r ~col_lo:c
    (Tensor.add (old_block a ~rows ~cols) (old_block b ~rows ~cols))

(* A range of at most 4 along an extent: usually valid, sometimes
   pushed out. *)
let gen_range extent =
  QCheck.Gen.(
    let* len = int_range 0 (min 4 extent) in
    let* lo = int_range 0 (extent - len) in
    let hi = lo + len in
    frequency
      [
        (6, return (lo, hi));
        (1, return (lo - 1, hi));
        (1, return (lo, extent + 1));
        (1, return (hi + 1, hi));
      ])

(* Tensors [x] and [y], a block of [x] (and of [y] when adding), the
   destination position, and which tensor is the destination:
   0 a third tensor, 1 [x] itself, 2 [y] itself.  Most positions lie
   within two rows and columns of the source block, so a destination
   that is [x] or [y] often overlaps it, the same row included. *)
let gen_block_case =
  QCheck.Gen.(
    let* xr = int_range 1 8 and* xc = int_range 1 8 in
    let* yr = int_range 1 8 and* yc = int_range 1 8 in
    let* rows = gen_range xr and* cols = gen_range xc in
    let* at =
      frequency
        [
          (1, pair (int_range (-1) 7) (int_range (-1) 7));
          ( 3,
            map2
              (fun dr dc -> (fst rows + dr, fst cols + dc))
              (int_range (-2) 2) (int_range (-2) 2) );
        ]
    in
    let* dst = int_range 0 2 and* seed = small_nat in
    return ((xr, xc), (yr, yc), rows, cols, at, dst, seed))

let prop_block_moves_match_old =
  QCheck.Test.make
    ~name:"blit_block/add_blocks equal block -> add -> set_block, bitwise"
    ~count:2000
    (QCheck.make
       ~print:(fun ((xr, xc), (yr, yc), (lo, hi), (clo, chi), (r, c), d, s) ->
         Printf.sprintf
           "x %dx%d y %dx%d rows %d..%d cols %d..%d at (%d,%d) dst %d seed %d"
           xr xc yr yc lo hi clo chi r c d s)
       gen_block_case)
    (fun ((xr, xc), (yr, yc), rows, cols, at, which, seed) ->
      let fresh () =
        let x = Tensor.random ~seed (shape [ xr; xc ])
        and y = Tensor.random ~seed:(seed + 1) (shape [ yr; yc ])
        and z = Tensor.random ~seed:(seed + 2) (shape [ 5; 6 ]) in
        (x, y, match which with 0 -> z | 1 -> x | _ -> y)
      in
      let outcome move =
        let x, y, dst = fresh () in
        let before = Tensor.copy dst in
        match move x y dst with
        | () -> Ok dst
        | exception Invalid_argument _ -> Error (Check.bits_equal before dst)
      in
      let agree old_move new_move =
        match (outcome old_move, outcome new_move) with
        | Ok a, Ok b -> Check.bits_equal a b
        | Error _, Error untouched -> untouched
        | _ -> false
      in
      agree
        (fun x _ dst -> old_blit ~src:x ~rows ~cols ~dst ~at)
        (fun x _ dst -> Tensor.blit_block ~src:x ~rows ~cols ~dst ~at)
      && agree
           (fun x y dst -> old_add x y ~rows ~cols ~dst ~at)
           (fun x y dst -> Tensor.add_blocks x y ~rows ~cols ~dst ~at))

let test_tensor_concat_transpose () =
  let a = Tensor.init (shape [ 1; 2 ]) (fun i -> float_of_int i.(1)) in
  let b = Tensor.init (shape [ 2; 2 ]) (fun i -> 10.0 +. float_of_int ((i.(0) * 2) + i.(1))) in
  let c = Tensor.concat_rows [ a; b ] in
  Alcotest.(check int) "concat rows" 3 (Tensor.rows c);
  check_float "concat content" 13.0 (Tensor.get2 c 2 1);
  let t = Tensor.transpose b in
  check_float "transpose" (Tensor.get2 b 0 1) (Tensor.get2 t 1 0)

let test_tensor_random_deterministic () =
  let a = Tensor.random ~seed:7 (shape [ 5; 5 ]) in
  let b = Tensor.random ~seed:7 (shape [ 5; 5 ]) in
  let c = Tensor.random ~seed:8 (shape [ 5; 5 ]) in
  tensor_close "same seed same tensor" a b;
  Alcotest.(check bool) "different seed differs" true
    (max_abs (Tensor.map2 ( -. ) a c) > 1e-6)

let test_tensor_random_range () =
  let a = Tensor.random ~seed:3 (shape [ 100 ]) in
  Alcotest.(check bool) "bounded by 0.5" true (max_abs a <= 0.5)

let prop_blit_roundtrip =
  QCheck.Test.make ~name:"row_slice/set_row_slice roundtrip" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (m, n) ->
      let t = Tensor.random ~seed:1 (shape [ m; n ]) in
      let out = Tensor.zeros (shape [ m; n ]) in
      for i = 0 to m - 1 do
        Tensor.set_row_slice out ~lo:i (Tensor.row_slice t ~lo:i ~hi:(i + 1))
      done;
      Check.close t out)

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let test_gemm_known () =
  let a = of_array (shape [ 2; 2 ]) [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = of_array (shape [ 2; 2 ]) [| 5.0; 6.0; 7.0; 8.0 |] in
  let c = Linalg.gemm a b in
  tensor_close "2x2 gemm"
    (of_array (shape [ 2; 2 ]) [| 19.0; 22.0; 43.0; 50.0 |])
    c

let test_gemm_identity () =
  let a = Tensor.random ~seed:2 (shape [ 4; 4 ]) in
  let eye =
    Tensor.init (shape [ 4; 4 ]) (fun i -> if i.(0) = i.(1) then 1.0 else 0.0)
  in
  tensor_close "a*I = a" a (Linalg.gemm a eye);
  tensor_close "I*a = a" a (Linalg.gemm eye a)

let test_gemm_accumulate () =
  let a = Tensor.random ~seed:3 (shape [ 3; 5 ]) in
  let b = Tensor.random ~seed:4 (shape [ 5; 2 ]) in
  let out = Linalg.gemm a b in
  let twice = Linalg.gemm ~accumulate:true ~out a b in
  tensor_close "accumulate doubles" (Tensor.scale 2.0 (Linalg.gemm a b)) twice

let test_gemm_blocked_equals_full () =
  (* Computing C tile by tile over K chunks must equal the full GEMM —
     the foundation of every overlapped kernel in this repo. *)
  let m, k, n = (8, 12, 6) in
  let a = Tensor.random ~seed:5 (shape [ m; k ]) in
  let b = Tensor.random ~seed:6 (shape [ k; n ]) in
  let full = Linalg.gemm a b in
  let c = Tensor.zeros (shape [ m; n ]) in
  let k_block = 5 in
  let rec sweep lo =
    if lo < k then begin
      let hi = min k (lo + k_block) in
      let a_block = Tensor.col_slice a ~lo ~hi in
      let b_block = Tensor.row_slice b ~lo ~hi in
      Tensor.add_inplace c (Linalg.gemm a_block b_block);
      sweep hi
    end
  in
  sweep 0;
  tensor_close "k-blocked gemm" full c

let test_gemm_microkernel_bits () =
  (* Every block size of the microkernel must equal the bounds-checked
     naive loop *bit for bit* — the autotuner treats the block edge as
     a pure speed knob, which is only sound under exact equality. *)
  let bits_equal msg a b =
    Alcotest.(check bool) msg true (Check.bits_equal a b)
  in
  List.iter
    (fun (m, k, n) ->
      let a = Tensor.random ~seed:(m + k) (shape [ m; k ]) in
      let b = Tensor.random ~seed:(k + n) (shape [ k; n ]) in
      let reference = Linalg.gemm_naive a b in
      bits_equal
        (Printf.sprintf "default path bits (%dx%dx%d)" m k n)
        reference (Linalg.gemm a b);
      List.iter
        (fun block ->
          bits_equal
            (Printf.sprintf "block=%d bits (%dx%dx%d)" block m k n)
            reference
            (Linalg.gemm ~block a b))
        [ 1; 2; 3; 4; 7; 8; 16; 64 ];
      (* Accumulating into an existing output must agree too. *)
      let seed_out = Tensor.random ~seed:99 (shape [ m; n ]) in
      let out_naive = Tensor.copy seed_out and out_blocked = Tensor.copy seed_out in
      ignore (Linalg.gemm_naive ~accumulate:true ~out:out_naive a b);
      ignore (Linalg.gemm ~accumulate:true ~out:out_blocked ~block:4 a b);
      bits_equal
        (Printf.sprintf "accumulate bits (%dx%dx%d)" m k n)
        out_naive out_blocked)
    [ (1, 1, 1); (3, 5, 2); (8, 12, 6); (16, 16, 16); (17, 31, 13) ]

let test_batch_gemm () =
  let a = Tensor.random ~seed:7 (shape [ 3; 2; 4 ]) in
  let b = Tensor.random ~seed:8 (shape [ 3; 4; 5 ]) in
  let c = Linalg.batch_gemm a b in
  Alcotest.(check (list int)) "shape" [ 3; 2; 5 ]
    (Array.to_list (Tensor.shape c));
  (* Check batch 1 against a manual slice. *)
  let slice t batch m n =
    Tensor.init (shape [ m; n ]) (fun i ->
        (Tensor.data t).(Shape.offset_of_index (Tensor.shape t)
                           [| batch; i.(0); i.(1) |]))
  in
  tensor_close "batch 1 matches"
    (Linalg.gemm (slice a 1 2 4) (slice b 1 4 5))
    (slice c 1 2 5)

let test_group_gemm () =
  let groups =
    [
      (Tensor.random ~seed:1 (shape [ 3; 4 ]), Tensor.random ~seed:2 (shape [ 4; 2 ]));
      (Tensor.random ~seed:3 (shape [ 5; 4 ]), Tensor.random ~seed:4 (shape [ 4; 2 ]));
    ]
  in
  let outs = Linalg.group_gemm groups in
  Alcotest.(check int) "two groups" 2 (List.length outs);
  List.iter2
    (fun (a, b) out -> tensor_close "group matches gemm" (Linalg.gemm a b) out)
    groups outs

let prop_gemm_distributes_over_row_split =
  QCheck.Test.make
    ~name:"gemm row-split: [A1;A2] * B = [A1*B; A2*B]" ~count:50
    QCheck.(triple (int_range 2 6) (int_range 1 6) (int_range 1 6))
    (fun (m, k, n) ->
      let a = Tensor.random ~seed:11 (shape [ m; k ]) in
      let b = Tensor.random ~seed:12 (shape [ k; n ]) in
      let split = m / 2 in
      let top = Linalg.gemm (Tensor.row_slice a ~lo:0 ~hi:split) b in
      let bottom = Linalg.gemm (Tensor.row_slice a ~lo:split ~hi:m) b in
      Check.close (Linalg.gemm a b) (Tensor.concat_rows [ top; bottom ]))

let prop_gemm_transpose =
  QCheck.Test.make ~name:"(A B)^T = B^T A^T" ~count:50
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 1 6))
    (fun (m, k, n) ->
      let a = Tensor.random ~seed:13 (shape [ m; k ]) in
      let b = Tensor.random ~seed:14 (shape [ k; n ]) in
      Check.close ~atol:1e-8
        (Tensor.transpose (Linalg.gemm a b))
        (Linalg.gemm (Tensor.transpose b) (Tensor.transpose a)))

(* Operands that make a broken kernel visible bit for bit: [a] mixes in
   [0.0] and [-0.0] (a kernel that drops the naive loop's zero-skip
   multiplies them into [b]'s infinities and yields NaN), and [b] holds
   sparse ±infinity among finite values. *)
let adversarial_operands ~seed ~m ~k ~n =
  let rng = Random.State.make [| seed |] in
  let a_elem _ =
    match Random.State.int rng 8 with
    | 0 | 1 -> 0.0
    | 2 -> -0.0
    | _ -> Random.State.float rng 2.0 -. 1.0
  in
  let b_elem _ =
    match Random.State.int rng 16 with
    | 0 -> infinity
    | 1 -> neg_infinity
    | _ -> Random.State.float rng 2.0 -. 1.0
  in
  ( Tensor.init (shape [ m; k ]) a_elem,
    Tensor.init (shape [ k; n ]) b_elem,
    rng )

let gemm_dims =
  QCheck.(quad (int_range 0 9) (int_range 0 13) (int_range 0 11) int)

let print_dims (m, k, n, seed) =
  Printf.sprintf "m=%d k=%d n=%d seed=%d" m k n seed

let prop_gemm_bits_adversarial =
  QCheck.Test.make ~count:300
    ~name:"gemm bits = naive (zeros, -0.0, infinities)"
    (QCheck.set_print print_dims gemm_dims)
    (fun (m, k, n, seed) ->
      let a, b, _ = adversarial_operands ~seed ~m ~k ~n in
      let reference = Linalg.gemm_naive a b in
      let start = Tensor.random ~seed (shape [ m; n ]) in
      let acc_reference =
        Linalg.gemm_naive ~accumulate:true ~out:(Tensor.copy start) a b
      in
      Check.bits_equal reference (Linalg.gemm a b)
      && List.for_all
           (fun block ->
             Check.bits_equal reference
               (Linalg.gemm ~out:(Tensor.copy start) ~block a b)
             && Check.bits_equal acc_reference
                  (Linalg.gemm ~accumulate:true ~out:(Tensor.copy start)
                     ~block a b))
           [ 0; 1; 3; 4; 64 ])

let prop_gemm_tile_bits_adversarial =
  QCheck.Test.make ~count:300
    ~name:"gemm_tile block = naive on slices; rest of out untouched"
    (QCheck.set_print print_dims gemm_dims)
    (fun (m, k, n, seed) ->
      let a, b, rng = adversarial_operands ~seed ~m ~k ~n in
      let range extent =
        let lo = Random.State.int rng (extent + 1) in
        (lo, lo + Random.State.int rng (extent - lo + 1))
      in
      let lo, hi = range m in
      let clo, chi = range n in
      (* A wider, taller [out] gives it its own row stride. *)
      let out_rows = m + Random.State.int rng 3 in
      let out_cols = n + Random.State.int rng 3 in
      let before =
        Tensor.random ~seed:(seed + 1) (shape [ out_rows; out_cols ])
      in
      (* [before] with only the tile replaced by the naive product. *)
      let expected = Tensor.copy before in
      Tensor.set_block expected ~row_lo:lo ~col_lo:clo
        (Linalg.gemm_naive (Tensor.row_slice a ~lo ~hi)
           (Tensor.col_slice b ~lo:clo ~hi:chi));
      List.for_all
        (fun block ->
          let out = Tensor.copy before in
          Linalg.gemm_tile ~out ~rows:(lo, hi) ~cols:(clo, chi) ~block a b;
          Check.bits_equal expected out)
        [ 0; 1; 3; 64 ])

let test_gemm_tile_rejects_bad_ranges () =
  let a = Tensor.random ~seed:1 (shape [ 4; 3 ]) in
  let b = Tensor.random ~seed:2 (shape [ 3; 5 ]) in
  let out = Tensor.zeros (shape [ 4; 5 ]) in
  let rejects what rows cols =
    Alcotest.(check bool) what true
      (try
         Linalg.gemm_tile ~out ~rows ~cols a b;
         false
       with Invalid_argument _ -> true)
  in
  rejects "rows past out" (0, 5) (0, 5);
  rejects "reversed rows" (3, 2) (0, 5);
  rejects "cols past b" (0, 4) (2, 6);
  rejects "negative cols" (0, 4) (-1, 2)

(* Two domains run the kernel at once on shared inputs: every result
   must be the sequential bits, so no scratch buffer may be shared
   between concurrent calls. *)
let test_gemm_concurrent_bits () =
  let m = 24 and k = 96 and n = 20 in
  let a = Tensor.random ~seed:5 (shape [ m; k ]) in
  let b = Tensor.random ~seed:6 (shape [ k; n ]) in
  let expected = Linalg.gemm_naive a b in
  let ready = Atomic.make 0 in
  let worker ~tile () =
    (* Start together, so the two domains' calls really overlap. *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let ok = ref true in
    for round = 0 to 499 do
      let block = List.nth [ 0; 7; 32 ] (round mod 3) in
      if tile then begin
        let out = Tensor.zeros (shape [ m; n ]) in
        let half = n / 2 in
        Linalg.gemm_tile ~out ~rows:(0, m) ~cols:(0, half) ~block a b;
        Linalg.gemm_tile ~out ~rows:(0, m) ~cols:(half, n) ~block a b;
        if not (Check.bits_equal expected out) then ok := false
      end
      else if not (Check.bits_equal expected (Linalg.gemm ~block a b)) then
        ok := false
    done;
    !ok
  in
  let other = Domain.spawn (worker ~tile:true) in
  let here = worker ~tile:false () in
  let there = Domain.join other in
  Alcotest.(check bool) "gemm on the main domain" true here;
  Alcotest.(check bool) "gemm_tile on a second domain" true there

(* ------------------------------------------------------------------ *)
(* Nn                                                                  *)
(* ------------------------------------------------------------------ *)

let test_softmax_rows () =
  let t = of_array (shape [ 1; 3 ]) [| 0.0; 1.0; 2.0 |] in
  let s = Nn.softmax_rows t in
  check_float "sums to 1" 1.0 (sum s);
  Alcotest.(check bool) "monotone" true
    (Tensor.get2 s 0 2 > Tensor.get2 s 0 1)

let test_softmax_overflow_safe () =
  let t = of_array (shape [ 1; 2 ]) [| 1000.0; 1001.0 |] in
  let s = Nn.softmax_rows t in
  Alcotest.(check bool) "no nan" true (Float.is_finite (sum s));
  check_float "sums to 1" 1.0 (sum s)

let test_activations () =
  check_float "silu(0)" 0.0 (Nn.silu 0.0);
  Alcotest.(check bool) "silu(5) near 5" true (Float.abs (Nn.silu 5.0 -. 4.966) < 1e-2);
  Alcotest.(check bool) "gelu(-10) near 0" true (Float.abs (Nn.gelu (-10.0)) < 1e-3);
  Alcotest.(check bool) "gelu(10) near 10" true (Float.abs (Nn.gelu 10.0 -. 10.0) < 1e-3)

let test_gated_activation () =
  let gate_up =
    of_array (shape [ 1; 4 ]) [| 1.0; 2.0; 3.0; 4.0 |]
  in
  let out = Nn.gated_activation Nn.Silu gate_up in
  check_float "silu(1)*3" (Nn.silu 1.0 *. 3.0) (Tensor.get2 out 0 0);
  check_float "silu(2)*4" (Nn.silu 2.0 *. 4.0) (Tensor.get2 out 0 1)

let test_topk () =
  let t =
    of_array (shape [ 2; 4 ]) [| 0.1; 0.9; 0.5; 0.3; 1.0; 1.0; 0.2; 0.4 |]
  in
  let ids = Nn.topk t ~k:2 in
  Alcotest.(check (list int)) "row 0" [ 1; 2 ] (Array.to_list ids.(0));
  (* Tie between columns 0 and 1 resolves to the lower index first. *)
  Alcotest.(check (list int)) "row 1 ties" [ 0; 1 ] (Array.to_list ids.(1))

let test_attention_uniform_when_keys_equal () =
  (* All keys identical -> softmax uniform -> output = mean of values. *)
  let q = Tensor.random ~seed:1 (shape [ 2; 4 ]) in
  let k = Tensor.init (shape [ 3; 4 ]) (fun i -> float_of_int i.(1)) in
  let v = Tensor.init (shape [ 3; 4 ]) (fun i -> float_of_int (i.(0) * 10)) in
  let out = Nn.attention q k v in
  check_float "mean of 0,10,20" 10.0 (Tensor.get2 out 0 0)

let test_flash_matches_attention () =
  let q = Tensor.random ~seed:21 (shape [ 6; 8 ]) in
  let k = Tensor.random ~seed:22 (shape [ 20; 8 ]) in
  let v = Tensor.random ~seed:23 (shape [ 20; 8 ]) in
  tensor_close ~atol:1e-8 "flash == reference" (Nn.attention q k v)
    (Nn.flash_attention ~block:7 q k v)

let test_flash_causal_matches () =
  let q = Tensor.random ~seed:31 (shape [ 5; 4 ]) in
  let k = Tensor.random ~seed:32 (shape [ 12; 4 ]) in
  let v = Tensor.random ~seed:33 (shape [ 12; 4 ]) in
  let mask = Nn.Causal { q_offset = 7 } in
  tensor_close ~atol:1e-8 "causal flash == causal reference"
    (Nn.attention ~mask q k v)
    (Nn.flash_attention ~mask ~block:5 q k v)

let test_flash_out_of_order_blocks () =
  (* Flash state must be insensitive to KV block arrival order. *)
  let q = Tensor.random ~seed:41 (shape [ 4; 4 ]) in
  let k = Tensor.random ~seed:42 (shape [ 12; 4 ]) in
  let v = Tensor.random ~seed:43 (shape [ 12; 4 ]) in
  let state = Nn.Flash.create ~m:4 ~d:4 () in
  List.iter
    (fun lo ->
      Nn.Flash.update state q
        (Tensor.row_slice k ~lo ~hi:(lo + 4))
        (Tensor.row_slice v ~lo ~hi:(lo + 4))
        ~kv_offset:lo)
    [ 8; 0; 4 ];
  tensor_close ~atol:1e-8 "out of order flash" (Nn.attention q k v)
    (Nn.Flash.finish state)

let prop_flash_equals_reference =
  QCheck.Test.make ~name:"flash attention equals reference (random shapes)"
    ~count:40
    QCheck.(triple (int_range 1 6) (int_range 1 24) (int_range 1 8))
    (fun (m, s, d) ->
      let q = Tensor.random ~seed:51 (shape [ m; d ]) in
      let k = Tensor.random ~seed:52 (shape [ s; d ]) in
      let v = Tensor.random ~seed:53 (shape [ s; d ]) in
      Check.close ~atol:1e-8
        (Nn.attention q k v)
        (Nn.flash_attention ~block:5 q k v))

(* The scalar flash update [Nn.Flash] replaced: per-row masked scores
   in a fresh array and P·V as an i-j-c loop over the unmasked keys. *)
module Scalar_flash = struct
  type t = {
    m : int;
    d : int;
    mask : Nn.mask;
    acc : Tensor.t;
    row_max : float array;
    row_sum : float array;
  }

  let masked_score mask ~q_row ~kv_col score =
    match mask with
    | Nn.No_mask -> score
    | Nn.Causal { q_offset } ->
      if kv_col > q_row + q_offset then neg_infinity else score

  let create ~mask ~m ~d =
    {
      m;
      d;
      mask;
      acc = Tensor.zeros (shape [ m; d ]);
      row_max = Array.make m neg_infinity;
      row_sum = Array.make m 0.0;
    }

  let update state q k_block v_block ~kv_offset =
    let m = state.m and d = state.d in
    let block = Tensor.rows k_block in
    let inv_sqrt_d = 1.0 /. sqrt (float_of_int d) in
    let scores = Linalg.gemm q (Tensor.transpose k_block) in
    let scores_data = Tensor.data scores
    and acc_data = Tensor.data state.acc
    and v_data = Tensor.data v_block in
    for i = 0 to m - 1 do
      let s_row = i * block and acc_row = i * d in
      let block_max = ref neg_infinity in
      let masked = Array.make block neg_infinity in
      for j = 0 to block - 1 do
        let s =
          masked_score state.mask ~q_row:i ~kv_col:(kv_offset + j)
            (scores_data.(s_row + j) *. inv_sqrt_d)
        in
        masked.(j) <- s;
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
          if masked.(j) > neg_infinity then begin
            let p = exp (masked.(j) -. new_max) in
            state.row_sum.(i) <- state.row_sum.(i) +. p;
            let v_row = j * d in
            for c = 0 to d - 1 do
              acc_data.(acc_row + c) <-
                acc_data.(acc_row + c) +. (p *. v_data.(v_row + c))
            done
          end
        done;
        state.row_max.(i) <- new_max
      end
    done

  let finish state =
    Tensor.init (shape [ state.m; state.d ]) (fun idx ->
        let i = idx.(0) and c = idx.(1) in
        if state.row_sum.(i) = 0.0 then 0.0
        else Tensor.get2 state.acc i c /. state.row_sum.(i))
end

(* Random m, d, sequence and block sizes, input scales, and masks whose
   negative or small causal offsets mask whole rows and whole blocks;
   the blocks arrive in a shuffled order and the outputs are compared
   after every update. *)
let prop_flash_matches_scalar =
  QCheck.Test.make ~name:"flash update is bit-identical to the scalar loop"
    ~count:3001
    QCheck.(
      pair
        (quad small_nat (int_range 1 9) (int_range 1 9) (int_range 0 30))
        (quad (int_range 1 12) (int_range 1 8) bool (int_range (-40) 40)))
    (fun ((seed, m, d, s), (block, scale, causal, q_offset)) ->
      let mask = if causal then Nn.Causal { q_offset } else Nn.No_mask in
      let input i rows =
        Tensor.scale (float_of_int scale)
          (Tensor.random ~seed:((3 * seed) + i) (shape [ rows; d ]))
      in
      let q = input 0 m and k = input 1 s and v = input 2 s in
      let offsets = Array.init ((s + block - 1) / block) (fun b -> b * block) in
      let rng = Random.State.make [| seed |] in
      for i = Array.length offsets - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = offsets.(i) in
        offsets.(i) <- offsets.(j);
        offsets.(j) <- t
      done;
      let fast = Nn.Flash.create ~mask ~m ~d ()
      and slow = Scalar_flash.create ~mask ~m ~d in
      Check.bits_equal (Scalar_flash.finish slow) (Nn.Flash.finish fast)
      && Array.for_all
           (fun lo ->
             let hi = min s (lo + block) in
             let k_block = Tensor.row_slice k ~lo ~hi
             and v_block = Tensor.row_slice v ~lo ~hi in
             Nn.Flash.update fast q k_block v_block ~kv_offset:lo;
             Scalar_flash.update slow q k_block v_block ~kv_offset:lo;
             Check.bits_equal (Scalar_flash.finish slow) (Nn.Flash.finish fast))
           offsets)

let test_flash_rejects_bad_kv () =
  let q = Tensor.random ~seed:61 (shape [ 3; 4 ]) in
  let k = Tensor.random ~seed:62 (shape [ 5; 4 ]) in
  List.iter
    (fun (name, k_block, v_block) ->
      let state = Nn.Flash.create ~m:3 ~d:4 () in
      Alcotest.check_raises name
        (Invalid_argument "Flash.update: kv shape mismatch") (fun () ->
          Nn.Flash.update state q k_block v_block ~kv_offset:0))
    [
      ("wider v", k, Tensor.random ~seed:63 (shape [ 5; 6 ]));
      ("narrower v", k, Tensor.random ~seed:64 (shape [ 5; 2 ]));
      ("shorter v", k, Tensor.random ~seed:65 (shape [ 4; 4 ]));
      ("narrower k", Tensor.random ~seed:66 (shape [ 5; 3 ]), k);
    ]

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let test_routing_basics () =
  let r = Routing.random ~seed:1 ~num_tokens:16 ~num_experts:4 ~topk:2 in
  Alcotest.(check int) "tokens" 16 (Routing.num_tokens r);
  Array.iter
    (fun token ->
      let ids = Routing.experts_of_token r token in
      Alcotest.(check int) "topk ids" 2 (Array.length ids);
      Alcotest.(check bool) "distinct experts" true (ids.(0) <> ids.(1));
      let w = Routing.weights_of_token r token in
      check_float "weights sum to 1" 1.0 (Array.fold_left ( +. ) 0.0 w))
    (Array.init 16 (fun i -> i))

let test_routing_load_conservation () =
  let r = Routing.random ~seed:2 ~num_tokens:32 ~num_experts:8 ~topk:3 in
  let load = Routing.expert_load r in
  Alcotest.(check int) "total slots" (32 * 3)
    (Array.fold_left ( + ) 0 load)

let test_routing_permutation () =
  let r = Routing.random ~seed:3 ~num_tokens:10 ~num_experts:4 ~topk:2 in
  let p = Routing.permutation r in
  Alcotest.(check int) "entries cover all slots" 20
    (Array.length p.Routing.entries);
  Alcotest.(check int) "segments end at total" 20
    p.Routing.segment_offsets.(4);
  (* Entries between segment offsets must all belong to that expert. *)
  for e = 0 to 3 do
    for i = p.Routing.segment_offsets.(e) to p.Routing.segment_offsets.(e + 1) - 1 do
      let expert, _, _ = p.Routing.entries.(i) in
      Alcotest.(check int) "segment grouping" e expert
    done
  done

let prop_routing_tokens_of_expert_consistent =
  QCheck.Test.make ~name:"tokens_of_expert agrees with experts_of_token"
    ~count:50
    QCheck.(triple (int_range 1 32) (int_range 2 8) (int_range 1 2))
    (fun (tokens, experts, topk) ->
      let topk = min topk experts in
      let r = Routing.random ~seed:9 ~num_tokens:tokens ~num_experts:experts ~topk in
      let ok = ref true in
      for e = 0 to experts - 1 do
        List.iter
          (fun (token, slot) ->
            if (Routing.experts_of_token r token).(slot) <> e then ok := false)
          (Routing.tokens_of_expert r e)
      done;
      !ok)

(* The per-expert definition [Routing.permutation] replaced: scan every
   token once per expert, kept here as the reference. *)
let permutation_by_expert_scan r =
  let experts = Routing.num_experts r in
  let buffer = ref [] in
  for expert = experts - 1 downto 0 do
    List.iter
      (fun (token, slot) -> buffer := (expert, token, slot) :: !buffer)
      (List.rev (Routing.tokens_of_expert r expert))
  done;
  let load = Routing.expert_load r in
  let segment_offsets = Array.make (experts + 1) 0 in
  for e = 0 to experts - 1 do
    segment_offsets.(e + 1) <- segment_offsets.(e) + load.(e)
  done;
  { Routing.entries = Array.of_list !buffer; segment_offsets }

let prop_routing_permutation_matches_scan =
  QCheck.Test.make ~name:"permutation equals the per-expert scan" ~count:100
    QCheck.(quad small_nat (int_range 0 40) (int_range 1 9) (int_range 1 4))
    (fun (seed, tokens, experts, topk) ->
      let topk = min topk experts in
      let r =
        Routing.random ~seed ~num_tokens:tokens ~num_experts:experts ~topk
      in
      Routing.permutation r = permutation_by_expert_scan r)

(* ------------------------------------------------------------------ *)
(* More edge cases                                                     *)
(* ------------------------------------------------------------------ *)

let test_map2_shape_mismatch () =
  let a = Tensor.zeros (shape [ 2; 2 ]) and b = Tensor.zeros (shape [ 2; 3 ]) in
  Alcotest.(check bool) "rejected" true
    (try ignore (Tensor.add a b); false with Invalid_argument _ -> true)

let test_bad_slices_rejected () =
  let t = Tensor.zeros (shape [ 4; 4 ]) in
  List.iter
    (fun f ->
      Alcotest.(check bool) "rejected" true
        (try ignore (f ()); false with Invalid_argument _ -> true))
    [
      (fun () -> Tensor.row_slice t ~lo:(-1) ~hi:2);
      (fun () -> Tensor.row_slice t ~lo:2 ~hi:6);
      (fun () -> Tensor.col_slice t ~lo:3 ~hi:2);
      (fun () ->
        Tensor.blit_block ~src:t ~rows:(0, 5) ~cols:(0, 2) ~dst:t ~at:(0, 0);
        t);
    ]

let test_gated_activation_gelu () =
  let gate_up = of_array (shape [ 1; 2 ]) [| 2.0; 3.0 |] in
  let out = Nn.gated_activation Nn.Gelu gate_up in
  check_float "gelu(2)*3" (Nn.gelu 2.0 *. 3.0) (Tensor.get2 out 0 0)

let test_topk_full_width () =
  let t = of_array (shape [ 1; 3 ]) [| 0.3; 0.1; 0.2 |] in
  let ids = Nn.topk t ~k:3 in
  Alcotest.(check (list int)) "descending" [ 0; 2; 1 ] (Array.to_list ids.(0))

(* The reference [Nn.topk]: the same comparator, reading each value
   through [Tensor.get2]. *)
let topk_by_get2 t ~k =
  Array.init (Tensor.rows t) (fun i ->
      let order = Array.init (Tensor.cols t) (fun j -> j) in
      Array.sort
        (fun a b ->
          let va = Tensor.get2 t i a and vb = Tensor.get2 t i b in
          if va = vb then compare a b else compare vb va)
        order;
      Array.sub order 0 k)

(* Logits drawn from five values, [0.0] and [-0.0] among them, so most
   rows tie and the lower-index tie-break decides the order. *)
let prop_topk_matches_get2 =
  QCheck.Test.make ~name:"topk matches the get2 sort on tie-heavy logits"
    ~count:200
    QCheck.(
      triple (int_range 1 6) (int_range 1 9)
        (pair (int_range 1 9) (list_of_size (Gen.return 54) (int_bound 4))))
    (fun (m, n, (k, picks)) ->
      let values = [| 0.0; -0.0; 1.0; 0.25; neg_infinity |] in
      let picks = Array.of_list picks in
      let t =
        Tensor.init (shape [ m; n ]) (fun idx ->
            values.(picks.((idx.(0) * n) + idx.(1))))
      in
      let k = min k n in
      Nn.topk t ~k = topk_by_get2 t ~k)

let test_causal_first_row_sees_only_itself () =
  (* q_offset = 0: row 0 attends to kv position 0 only, so its output
     equals v[0]. *)
  let q = Tensor.random ~seed:91 (shape [ 1; 4 ]) in
  let k = Tensor.random ~seed:92 (shape [ 5; 4 ]) in
  let v = Tensor.random ~seed:93 (shape [ 5; 4 ]) in
  let out = Nn.attention ~mask:(Nn.Causal { q_offset = 0 }) q k v in
  tensor_close "first causal row = v0" (Tensor.row_slice v ~lo:0 ~hi:1) out

let test_flash_empty_finish_zero () =
  let state = Nn.Flash.create ~m:2 ~d:3 () in
  let out = Nn.Flash.finish state in
  check_float "all zeros" 0.0 (max_abs out)

let test_routing_of_logits_deterministic () =
  let logits = Tensor.random ~seed:94 (shape [ 6; 4 ]) in
  let r1 = Routing.of_logits logits ~topk:2 in
  let r2 = Routing.of_logits logits ~topk:2 in
  for token = 0 to 5 do
    Alcotest.(check (list int)) "same experts"
      (Array.to_list (Routing.experts_of_token r1 token))
      (Array.to_list (Routing.experts_of_token r2 token))
  done

let test_batch_gemm_rejects_mismatch () =
  let a = Tensor.zeros (shape [ 2; 3; 4 ]) in
  let b = Tensor.zeros (shape [ 3; 4; 5 ]) in
  Alcotest.(check bool) "batch mismatch" true
    (try ignore (Linalg.batch_gemm a b); false
     with Invalid_argument _ -> true)

let test_transpose_involution () =
  let t = Tensor.random ~seed:95 (shape [ 3; 5 ]) in
  tensor_close "double transpose" t (Tensor.transpose (Tensor.transpose t))

let prop_sum_linear =
  QCheck.Test.make ~name:"sum is linear under scale" ~count:100
    QCheck.(pair (int_range 1 6) (float_range (-4.0) 4.0))
    (fun (n, k) ->
      let t = Tensor.random ~seed:96 (shape [ n; n ]) in
      Float.abs (sum (Tensor.scale k t) -. (k *. sum t)) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Check                                                               *)
(* ------------------------------------------------------------------ *)

let test_check_reports_mismatch () =
  let a = Tensor.zeros (shape [ 2; 2 ]) in
  let b = of_array (shape [ 2; 2 ]) [| 0.0; 0.0; 0.5; 0.0 |] in
  let r = Check.compare a b in
  Alcotest.(check bool) "mismatch flagged" false r.Check.within;
  check_float "max err" 0.5 r.Check.max_abs_err;
  Alcotest.(check (list int)) "worst index" [ 1; 0 ]
    (Array.to_list r.Check.worst_index)

(* A NaN or an infinity matches only its own class, whichever side it
   is on, and is reported as the worst index. *)
let test_check_nonfinite () =
  let t values = of_array (shape [ 2 ]) values in
  List.iter
    (fun (name, expected, actual, within, worst) ->
      let r = Check.compare (t expected) (t actual) in
      Alcotest.(check bool) (name ^ ": within") within r.Check.within;
      Alcotest.(check bool) (name ^ ": close") within
        (Check.close (t expected) (t actual));
      Option.iter
        (fun worst ->
          Alcotest.(check (list int)) (name ^ ": worst index") [ worst ]
            (Array.to_list r.Check.worst_index);
          Alcotest.(check bool) (name ^ ": infinite error") true
            (r.Check.max_abs_err = infinity))
        worst)
    [
      ("nan actual", [| 1.0; 2.0 |], [| nan; 2.0 |], false, Some 0);
      ("nan expected", [| 1.0; 2.0 |], [| 1.0; nan |], false, Some 1);
      ("inf vs finite", [| infinity; 2.0 |], [| 1.0; 2.0 |], false, Some 0);
      ("inf sign", [| 1.0; infinity |], [| 1.0; neg_infinity |], false, Some 1);
      ("nan vs inf", [| nan; 2.0 |], [| infinity; 2.0 |], false, Some 0);
      ( "outranks a finite error",
        [| 5.0; nan |], [| 0.0; 1.0 |], false, Some 1 );
      ("nan matches nan", [| nan; 2.0 |], [| nan; 2.0 |], true, None);
      ("inf matches inf", [| neg_infinity; 2.0 |], [| neg_infinity; 2.0 |],
       true, None);
    ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "tiles" `Quick test_shape_tiles;
          qc prop_offset_roundtrip;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "init/get/set" `Quick test_tensor_init_get_set;
          Alcotest.test_case "row ops" `Quick test_tensor_row_ops;
          Alcotest.test_case "col and block" `Quick test_tensor_col_and_block;
          Alcotest.test_case "concat/transpose" `Quick
            test_tensor_concat_transpose;
          Alcotest.test_case "random deterministic" `Quick
            test_tensor_random_deterministic;
          Alcotest.test_case "random range" `Quick test_tensor_random_range;
          qc prop_blit_roundtrip;
          qc prop_block_moves_match_old;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "gemm known" `Quick test_gemm_known;
          Alcotest.test_case "gemm identity" `Quick test_gemm_identity;
          Alcotest.test_case "gemm accumulate" `Quick test_gemm_accumulate;
          Alcotest.test_case "k-blocked == full" `Quick
            test_gemm_blocked_equals_full;
          Alcotest.test_case "microkernel bit-identity" `Quick
            test_gemm_microkernel_bits;
          Alcotest.test_case "batch gemm" `Quick test_batch_gemm;
          Alcotest.test_case "group gemm" `Quick test_group_gemm;
          Alcotest.test_case "gemm_tile rejects bad ranges" `Quick
            test_gemm_tile_rejects_bad_ranges;
          Alcotest.test_case "concurrent bit-identity" `Quick
            test_gemm_concurrent_bits;
          qc prop_gemm_distributes_over_row_split;
          qc prop_gemm_transpose;
          qc prop_gemm_bits_adversarial;
          qc prop_gemm_tile_bits_adversarial;
        ] );
      ( "nn",
        [
          Alcotest.test_case "softmax" `Quick test_softmax_rows;
          Alcotest.test_case "softmax overflow" `Quick
            test_softmax_overflow_safe;
          Alcotest.test_case "activations" `Quick test_activations;
          Alcotest.test_case "gated activation" `Quick test_gated_activation;
          Alcotest.test_case "topk" `Quick test_topk;
          Alcotest.test_case "attention uniform" `Quick
            test_attention_uniform_when_keys_equal;
          Alcotest.test_case "flash matches" `Quick
            test_flash_matches_attention;
          Alcotest.test_case "flash causal" `Quick test_flash_causal_matches;
          Alcotest.test_case "flash out of order" `Quick
            test_flash_out_of_order_blocks;
          qc prop_flash_equals_reference;
          qc prop_flash_matches_scalar;
          Alcotest.test_case "flash rejects bad kv" `Quick
            test_flash_rejects_bad_kv;
        ] );
      ( "routing",
        [
          Alcotest.test_case "basics" `Quick test_routing_basics;
          Alcotest.test_case "load conservation" `Quick
            test_routing_load_conservation;
          Alcotest.test_case "permutation" `Quick test_routing_permutation;
          qc prop_routing_tokens_of_expert_consistent;
          qc prop_routing_permutation_matches_scan;
        ] );
      ( "edges",
        [
          Alcotest.test_case "map2 mismatch" `Quick test_map2_shape_mismatch;
          Alcotest.test_case "bad slices" `Quick test_bad_slices_rejected;
          Alcotest.test_case "gelu gate" `Quick test_gated_activation_gelu;
          Alcotest.test_case "topk full width" `Quick test_topk_full_width;
          qc prop_topk_matches_get2;
          Alcotest.test_case "causal first row" `Quick
            test_causal_first_row_sees_only_itself;
          Alcotest.test_case "flash empty finish" `Quick
            test_flash_empty_finish_zero;
          Alcotest.test_case "routing deterministic" `Quick
            test_routing_of_logits_deterministic;
          Alcotest.test_case "batch mismatch" `Quick
            test_batch_gemm_rejects_mismatch;
          Alcotest.test_case "transpose involution" `Quick
            test_transpose_involution;
          qc prop_sum_linear;
        ] );
      ( "check",
        [
          Alcotest.test_case "mismatch report" `Quick test_check_reports_mismatch;
          Alcotest.test_case "nan and infinity" `Quick test_check_nonfinite;
        ] );
    ]
