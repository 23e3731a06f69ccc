(* Tests for the operator-centric collectives substrate. *)

open Tilelink_machine
open Tilelink_tensor
open Tilelink_comm

let shape = Shape.of_list

let tensor_close msg expected actual =
  let report = Check.compare expected actual in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s)" msg
       (Format.asprintf "%a" Check.pp_report report))
    true report.Check.within

(* ------------------------------------------------------------------ *)
(* Data-level semantics                                                *)
(* ------------------------------------------------------------------ *)

let shards seed n =
  List.init n (fun i -> Tensor.random ~seed:(seed + i) (shape [ 4; 3 ]))

let test_allgather_data () =
  let s = shards 1 3 in
  let gathered = Collective.allgather_data s in
  Alcotest.(check int) "rows" 12 (Tensor.rows gathered);
  tensor_close "segment 1"
    (List.nth s 1)
    (Tensor.row_slice gathered ~lo:4 ~hi:8)

let test_reducescatter_data () =
  let s = shards 2 4 in
  let outs = Collective.reducescatter_data s in
  Alcotest.(check int) "4 outputs" 4 (List.length outs);
  let total = Collective.reduce_data s in
  tensor_close "slice 2"
    (Tensor.row_slice total ~lo:2 ~hi:3)
    (List.nth outs 2)

let test_allreduce_data () =
  let s = shards 3 3 in
  let outs = Collective.allreduce_data s in
  let total = Collective.reduce_data s in
  List.iter (fun out -> tensor_close "all equal total" total out) outs

let test_all2all_data () =
  let s = shards 4 2 in
  let outs = Collective.all2all_data s in
  (* Output r = concat over sources of source's slice r. *)
  tensor_close "transposed exchange"
    (Tensor.concat_rows
       [
         Tensor.row_slice (List.nth s 0) ~lo:2 ~hi:4;
         Tensor.row_slice (List.nth s 1) ~lo:2 ~hi:4;
       ])
    (List.nth outs 1)

let test_rs_ag_is_allreduce () =
  let s = shards 5 4 in
  let rs = Collective.reducescatter_data s in
  let ag = Collective.allgather_data rs in
  List.iter2
    (fun expected _ -> tensor_close "rs+ag = allreduce" expected ag)
    (Collective.allreduce_data s)
    s

(* ------------------------------------------------------------------ *)
(* Timed collectives                                                   *)
(* ------------------------------------------------------------------ *)

let spec = Calib.test_machine

let time kind algo bytes =
  Collective.standalone_time spec ~world_size:4 ~kind ~algo
    ~bytes_per_shard:bytes

let test_allgather_scales_with_bytes () =
  let small = time Collective.Allgather Collective.Ring 1.0e3 in
  let big = time Collective.Allgather Collective.Ring 1.0e5 in
  Alcotest.(check bool) "monotonic in size" true (big > small)

let test_ring_allgather_close_to_bandwidth_bound () =
  (* Ring AllGather of B bytes per shard on R ranks moves (R-1)*B per
     rank; at rate 1 GB/s = 1e3 B/us that's the dominant term. *)
  let bytes = 1.0e6 in
  let t = time Collective.Allgather Collective.Ring bytes in
  let wire = 3.0 *. bytes /. 1.0e3 in
  Alcotest.(check bool) "within 30% of wire time" true
    (t >= wire && t < wire *. 1.3)

let test_allreduce_costlier_than_reducescatter () =
  let rs = time Collective.Reducescatter Collective.Ring 1.0e5 in
  let ar = time Collective.Allreduce Collective.Ring 1.0e5 in
  Alcotest.(check bool) "allreduce = rs + ag" true (ar > rs)

let test_mesh_vs_ring_same_volume () =
  let ring = time Collective.Allgather Collective.Ring 1.0e5 in
  let mesh = time Collective.Allgather Collective.Mesh 1.0e5 in
  (* Both move the same volume; they should be within 2x. *)
  Alcotest.(check bool) "same ballpark" true
    (mesh /. ring < 2.0 && ring /. mesh < 2.0)

let test_all2all_cheaper_than_allgather () =
  let ag = time Collective.Allgather Collective.Ring 1.0e5 in
  let a2a = time Collective.All2all Collective.Mesh 1.0e5 in
  (* All2All moves 1/R of the per-pair volume. *)
  Alcotest.(check bool) "all2all cheaper" true (a2a < ag)

let test_missing_participant_deadlocks () =
  let cluster = Cluster.create spec ~world_size:2 in
  let op =
    Collective.create cluster ~kind:Collective.Allgather
      ~algo:Collective.Ring ~bytes_per_shard:100.0
  in
  (* Only rank 0 joins: entry barrier never completes. *)
  Collective.start_rank op ~rank:0;
  (* Rank 0 is the one process left, parked on the entry barrier it
     reached after the 3 µs collective setup. *)
  Alcotest.(check (option string)) "deadlock"
    (Some "simulation deadlock: 1 process(es) still blocked at t=3.000")
    (try
       Tilelink_sim.Engine.run (Cluster.engine cluster);
       None
     with Tilelink_sim.Engine.Deadlock msg -> Some msg)

let prop_data_collectives_preserve_sum =
  QCheck.Test.make ~name:"reducescatter preserves the total sum" ~count:50
    QCheck.(pair (int_range 2 5) (int_range 1 4))
    (fun (world, blocks) ->
      let rows = world * blocks in
      let tensors =
        List.init world (fun i ->
            Tensor.random ~seed:(50 + i) (Shape.of_list [ rows; 2 ]))
      in
      let total_in =
        List.fold_left (fun acc t -> acc +. Tensor.sum t) 0.0 tensors
      in
      let total_out =
        List.fold_left
          (fun acc t -> acc +. Tensor.sum t)
          0.0
          (Collective.reducescatter_data tensors)
      in
      Float.abs (total_in -. total_out) < 1e-6)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "comm"
    [
      ( "data",
        [
          Alcotest.test_case "allgather" `Quick test_allgather_data;
          Alcotest.test_case "reducescatter" `Quick test_reducescatter_data;
          Alcotest.test_case "allreduce" `Quick test_allreduce_data;
          Alcotest.test_case "all2all" `Quick test_all2all_data;
          Alcotest.test_case "rs+ag = allreduce" `Quick
            test_rs_ag_is_allreduce;
          qc prop_data_collectives_preserve_sum;
        ] );
      ( "timing",
        [
          Alcotest.test_case "scales with bytes" `Quick
            test_allgather_scales_with_bytes;
          Alcotest.test_case "ring near bandwidth bound" `Quick
            test_ring_allgather_close_to_bandwidth_bound;
          Alcotest.test_case "allreduce > reducescatter" `Quick
            test_allreduce_costlier_than_reducescatter;
          Alcotest.test_case "mesh vs ring" `Quick
            test_mesh_vs_ring_same_volume;
          Alcotest.test_case "all2all cheaper" `Quick
            test_all2all_cheaper_than_allgather;
          Alcotest.test_case "missing participant deadlocks" `Quick
            test_missing_participant_deadlocks;
        ] );
    ]
