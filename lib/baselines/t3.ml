(* T3-style baseline: transparent tracking & triggering.

   T3 overlaps the producer kernel with its collective by tracking
   tile completions in hardware and triggering the matching transfer
   as soon as a tile is ready — no kernel rewrite, near-perfect
   overlap, but every tracked tile pays a small fixed bookkeeping cost
   (address-range match + trigger).  The analytic model mirrors
   {!Nonoverlap}'s API so the two bracket the tile-centric runtime
   from both sides:

     t3 = launch + max(compute, comm) + tracking * tiles

   where the per-tile tracking overhead is charged on top of the
   overlapped span (the tracker serializes with neither phase but its
   triggers consume issue slots).  All times in µs. *)

open Tilelink_machine
module Collective = Tilelink_comm.Collective

(* Hardware tile granularity the tracker watches: the same 128x128
   macro-tile the full-chip GEMM is modeled on. *)
let track_tile = 128

(* Per-tile tracking cost: an address-range match plus a DMA trigger.
   Modeled as half a signal-notify — cheaper than a software notify
   (no SM involvement) but not free. *)
let tracking_us (spec : Spec.t) =
  0.5 *. spec.Spec.overheads.signal_notify

let tiles_of ~m ~n =
  ((m + track_tile - 1) / track_tile) * ((n + track_tile - 1) / track_tile)

let overlapped (spec : Spec.t) ~compute ~comm ~tiles =
  spec.Spec.overheads.kernel_launch
  +. Float.max compute comm
  +. (tracking_us spec *. float_of_int tiles)

(* AllGather (over M) overlapped with the GEMM consuming it. *)
let ag_gemm_time (spec : Spec.t) ~world_size ~m ~k ~n =
  let bytes_per_shard =
    float_of_int (m / world_size) *. float_of_int k *. Cost.dtype_bytes
  in
  let comm =
    Collective.standalone_time spec ~world_size ~kind:Collective.Allgather
      ~algo:Collective.Ring ~bytes_per_shard
  in
  let compute =
    Cost.gemm_kernel_time spec ~sms:spec.Spec.gpu.num_sms ~m ~n ~k ~tm:128
      ~tn:128
  in
  overlapped spec ~compute ~comm ~tiles:(tiles_of ~m ~n)
