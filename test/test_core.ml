(* Tests for the TileLink core: tiles, mappings, lowering, pipelining,
   consistency, and an end-to-end hand-built overlapped AG+GEMM. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

let shape = Shape.of_list
let check_float = Alcotest.(check (float 1e-6))

let tensor_close ?(atol = 1e-9) msg expected actual =
  let report = Check.compare ~atol expected actual in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s)" msg
       (Format.asprintf "%a" Check_report.pp report))
    true report.Check.within

(* ------------------------------------------------------------------ *)
(* Tile                                                                *)
(* ------------------------------------------------------------------ *)

let test_tile_grid () =
  let g = Tile.grid ~extent_m:10 ~extent_n:8 ~tile_m:4 ~tile_n:4 in
  Alcotest.(check int) "tiles_m" 3 (Tile.tiles_m g);
  Alcotest.(check int) "tiles_n" 2 (Tile.tiles_n g);
  Alcotest.(check (pair int int)) "ragged rows" (8, 10)
    (Tile.rows g { Tile.tid_m = 2; tid_n = 0 });
  let t = { Tile.tid_m = 1; tid_n = 1 } in
  Alcotest.(check int) "linearize" 3 (Tile.linearize g t);
  Alcotest.(check bool) "roundtrip" true
    (t = Tile.of_linear g 3)

let test_tile_orders () =
  let g = Tile.grid ~extent_m:8 ~extent_n:4 ~tile_m:2 ~tile_n:4 in
  (* 4 row tiles, 1 col tile; 2 segments of 2 row tiles each. *)
  let row_ids order rank =
    List.map (fun t -> t.Tile.tid_m) (Tile.enumerate ~rank g order)
  in
  Alcotest.(check (list int)) "row major" [ 0; 1; 2; 3 ]
    (row_ids Tile.Row_major 0);
  Alcotest.(check (list int)) "ring from self rank1" [ 2; 3; 0; 1 ]
    (row_ids (Tile.Ring_from_self { segments = 2 }) 1);
  Alcotest.(check (list int)) "ring next rank1" [ 0; 1; 2; 3 ]
    (row_ids (Tile.Ring_prev_first { segments = 2 }) 1);
  Alcotest.(check (list int)) "ring next rank0" [ 2; 3; 0; 1 ]
    (row_ids (Tile.Ring_prev_first { segments = 2 }) 0)

let test_tile_order_covers_grid () =
  let g = Tile.grid ~extent_m:12 ~extent_n:6 ~tile_m:2 ~tile_n:3 in
  List.iter
    (fun order ->
      let tiles = Tile.enumerate ~rank:2 g order in
      Alcotest.(check int) "count" (Tile.tile_count g) (List.length tiles);
      let distinct = List.sort_uniq compare tiles in
      Alcotest.(check int) "distinct" (Tile.tile_count g)
        (List.length distinct))
    [
      Tile.Row_major;
      Tile.Column_major;
      Tile.Ring_from_self { segments = 3 };
      Tile.Ring_prev_first { segments = 6 };
    ]

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let test_static_mapping_paper_formulas () =
  (* M = 64, R = 4, C = 2, Tm = 8: M_per_rank = 16, M_per_channel = 8. *)
  let m = Mapping.static ~extent:64 ~ranks:4 ~channels_per_rank:2 ~tile:8 () in
  Alcotest.(check int) "tiles" 8 (Mapping.num_tiles m);
  Alcotest.(check int) "channels" 8 (Mapping.num_channels m);
  Alcotest.(check (pair int int)) "range of tile 3" (24, 32)
    (Mapping.shape_range m ~tid:3);
  Alcotest.(check int) "rank of tile 3" 1 (Mapping.rank_of m ~tid:3);
  Alcotest.(check int) "channel of tile 3" 3 (Mapping.channel_of m ~tid:3);
  Alcotest.(check (pair int int)) "split channel 5" (2, 1)
    (Mapping.split_channel m 5);
  Alcotest.(check int) "expected per channel" 1 (Mapping.expected m ~channel:0)

let test_static_mapping_multi_tile_channels () =
  (* Tm = 4 with 8-row channels: two producer tiles per channel. *)
  let m = Mapping.static ~extent:64 ~ranks:4 ~channels_per_rank:2 ~tile:4 () in
  Alcotest.(check int) "expected" 2 (Mapping.expected m ~channel:0);
  Alcotest.(check (list (pair int int))) "wait set for rows [4,20)"
    [ (0, 2); (1, 2); (2, 2) ]
    (Mapping.channels_for_range m ~lo:4 ~hi:20)

let test_static_mapping_ranks_for_range () =
  let m = Mapping.static ~extent:64 ~ranks:4 ~channels_per_rank:2 ~tile:8 () in
  Alcotest.(check (list int)) "one rank" [ 1 ]
    (Mapping.ranks_for_range m ~lo:16 ~hi:32);
  Alcotest.(check (list int)) "spanning" [ 0; 1; 2 ]
    (Mapping.ranks_for_range m ~lo:8 ~hi:33)

let test_static_mapping_src_shard () =
  let m = Mapping.static ~extent:64 ~ranks:4 ~channels_per_rank:2 ~tile:8 () in
  (* Tile 3 covers global rows [24,32) on rank 1 -> shard rows [8,16). *)
  Alcotest.(check (pair int int)) "shard-local" (8, 16)
    (Mapping.src_shard_range m ~tid:3)

let test_static_mapping_rejects_bad_config () =
  let rejected f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "uneven shard" true
    (rejected (fun () ->
         Mapping.static ~extent:10 ~ranks:4 ~channels_per_rank:1 ~tile:2 ()));
  Alcotest.(check bool) "tile > channel" true
    (rejected (fun () ->
         Mapping.static ~extent:64 ~ranks:4 ~channels_per_rank:2 ~tile:16 ()))

let test_dynamic_mapping () =
  (* 3 tiles with hand-written tables. *)
  let m =
    Mapping.dynamic ~ranks:2 ~channels_per_rank:2
      ~f_s_low:[| 0; 8; 4 |] ~f_s_high:[| 4; 12; 8 |]
      ~f_r:[| 0; 1; 0 |] ~f_c:[| 0; 3; 1 |] ()
  in
  Alcotest.(check (pair int int)) "range" (8, 12) (Mapping.shape_range m ~tid:1);
  Alcotest.(check int) "rank" 1 (Mapping.rank_of m ~tid:1);
  Alcotest.(check int) "channel" 3 (Mapping.channel_of m ~tid:1);
  Alcotest.(check int) "expected" 1 (Mapping.expected m ~channel:3);
  (* Rows [5, 9) intersect tiles 1 (no: [8,12) yes) and 2 ([4,8) yes). *)
  Alcotest.(check (list (pair int int))) "channels for range"
    [ (1, 1); (3, 1) ]
    (Mapping.channels_for_range m ~lo:5 ~hi:9)

let prop_static_mapping_consistent =
  QCheck.Test.make ~name:"static mapping: rank/channel consistent with rows"
    ~count:100
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 1 4))
    (fun (ranks, channels_per_rank, tiles_per_channel) ->
      let tile = 2 in
      let extent = ranks * channels_per_rank * tiles_per_channel * tile in
      let m = Mapping.static ~extent ~ranks ~channels_per_rank ~tile () in
      let ok = ref true in
      for tid = 0 to Mapping.num_tiles m - 1 do
        let lo, hi = Mapping.shape_range m ~tid in
        let rank = Mapping.rank_of m ~tid in
        let rows_per_rank = extent / ranks in
        if lo / rows_per_rank <> rank || (hi - 1) / rows_per_rank <> rank then
          ok := false;
        let channel = Mapping.channel_of m ~tid in
        let owner, _ = Mapping.split_channel m channel in
        if owner <> rank then ok := false
      done;
      (* Channel expected counts sum to the tile count. *)
      let sum = ref 0 in
      for c = 0 to Mapping.num_channels m - 1 do
        sum := !sum + Mapping.expected m ~channel:c
      done;
      !ok && !sum = Mapping.num_tiles m)

(* The MoE wait set: [channels_for_rows] must equal the per-row fold
   over [channels_for_range] that lowering used to run, on static and
   dynamic mappings, with repeated rows and rows past the tables (a
   static mapping rejects those; both must then raise). *)
let prop_channels_for_rows_matches_per_row_fold =
  let open QCheck.Gen in
  let static_gen =
    let* ranks = int_range 1 4 in
    let* channels_per_rank = int_range 1 3 in
    let* tile = int_range 1 3 in
    let* tiles_per_channel = int_range 1 3 in
    let* multiplicity = int_range 1 2 in
    let extent = ranks * channels_per_rank * tiles_per_channel * tile in
    return
      ( Printf.sprintf "static(extent=%d ranks=%d cpr=%d tile=%d x%d)" extent
          ranks channels_per_rank tile multiplicity,
        Mapping.static ~multiplicity ~extent ~ranks ~channels_per_rank ~tile
          (),
        extent )
  in
  let dynamic_gen =
    let* ranks = int_range 1 3 in
    let* channels_per_rank = int_range 1 3 in
    let* tiles = int_range 1 8 in
    let* lows = array_repeat tiles (int_range 0 16) in
    let* lens = array_repeat tiles (int_range 0 4) in
    let* f_r = array_repeat tiles (int_range 0 (ranks - 1)) in
    let* f_c =
      array_repeat tiles (int_range 0 ((ranks * channels_per_rank) - 1))
    in
    let f_s_high = Array.mapi (fun i lo -> lo + lens.(i)) lows in
    return
      ( Printf.sprintf "dynamic(lo=[%s] hi=[%s] c=[%s])"
          (String.concat ";" (Array.to_list (Array.map string_of_int lows)))
          (String.concat ";" (Array.to_list (Array.map string_of_int f_s_high)))
          (String.concat ";" (Array.to_list (Array.map string_of_int f_c))),
        Mapping.dynamic ~ranks ~channels_per_rank ~f_s_low:lows ~f_s_high ~f_r
          ~f_c (),
        Array.fold_left max 0 f_s_high )
  in
  let gen =
    let* name, mapping, extent = oneof [ static_gen; dynamic_gen ] in
    (* Rows reach a few past the mapping's extent; repeat one of them. *)
    let* rows = list_size (int_range 0 10) (int_range 0 (extent + 3)) in
    let* dup = bool in
    let rows = match rows with r :: _ when dup -> r :: rows | _ -> rows in
    return (name, mapping, rows)
  in
  let print (name, _, rows) =
    Printf.sprintf "%s rows=[%s]" name
      (String.concat ";" (List.map string_of_int rows))
  in
  let per_row_fold mapping rows =
    let table = Hashtbl.create 8 in
    List.iter
      (fun row ->
        List.iter
          (fun (channel, threshold) -> Hashtbl.replace table channel threshold)
          (Mapping.channels_for_range mapping ~lo:row ~hi:(row + 1)))
      rows;
    Hashtbl.fold (fun c t acc -> (c, t) :: acc) table [] |> List.sort compare
  in
  let outcome f = try Ok (f ()) with Invalid_argument _ -> Error () in
  QCheck.Test.make ~name:"channels_for_rows matches the per-row fold"
    ~count:500 (QCheck.make ~print gen) (fun (_, mapping, rows) ->
      outcome (fun () -> Mapping.channels_for_rows mapping rows)
      = outcome (fun () -> per_row_fold mapping rows))

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)
(* ------------------------------------------------------------------ *)

let with_engine body =
  let engine = Tilelink_sim.Engine.create () in
  body engine;
  Tilelink_sim.Engine.run engine

(* A channel wait on a cursor, the way the interpreter runs one:
   [wait_begin], a park on [wait_park] if the counter is short, then
   [wait_end]; [k] runs once the wait is over. *)
let cursor_wait engine channels target ~threshold k =
  let module Cursor = Tilelink_sim.Cursor in
  let c = Cursor.create engine in
  let since = Tilelink_sim.Engine.now engine in
  let finish id () =
    Channel.wait_end channels ~waiter:(-1) ~worker:(-1) target ~threshold ~id
      ~since;
    Cursor.finish c;
    k ()
  in
  Cursor.start c (fun () ->
      let id = Channel.wait_begin channels target ~threshold in
      if id < 0 then finish id ()
      else begin
        Cursor.set_step c (finish id);
        Cursor.park c;
        Channel.wait_park channels ~waiter:(-1) target ~threshold
          (Cursor.waker c)
      end)

(* A notify from no worker, the way the runtime issues one. *)
let notify channels target ~amount =
  Channel.notify channels ~worker:(-1) target ~amount

let test_channel_pc_roundtrip () =
  let channels = Channel.create ~world_size:2 ~channels_per_rank:3 () in
  let woke = ref false in
  with_engine (fun engine ->
      cursor_wait engine channels (Instr.Pc { rank = 1; channel = 2 })
        ~threshold:2 (fun () -> woke := true);
      Tilelink_sim.Engine.schedule engine ~delay:1.0 (fun () ->
          Alcotest.(check bool) "parked" false !woke;
          Alcotest.(check int) "one pending wait" 1
            (List.length (Channel.pending_waits channels));
          notify channels (Instr.Pc { rank = 1; channel = 2 }) ~amount:2));
  Alcotest.(check bool) "woke" true !woke;
  Alcotest.(check int) "no pending wait" 0
    (List.length (Channel.pending_waits channels));
  Alcotest.(check (option int)) "value" (Some 2)
    (Channel.key_value channels ~key:"pc[1][2]")

let test_channel_peer_isolated_by_direction () =
  let channels = Channel.create ~world_size:2 ~channels_per_rank:1 () in
  notify channels (Instr.Peer { src = 0; dst = 1; channel = 0 }) ~amount:3;
  Alcotest.(check (option int)) "0->1 set" (Some 3)
    (Channel.key_value channels ~key:"peer[1<-0][0]");
  Alcotest.(check (option int)) "1->0 untouched" (Some 0)
    (Channel.key_value channels ~key:"peer[0<-1][0]")

let test_channel_host () =
  let channels = Channel.create ~world_size:2 ~channels_per_rank:1 () in
  let woke = ref false in
  with_engine (fun engine ->
      cursor_wait engine channels (Instr.Host { src = 0; dst = 1 })
        ~threshold:1 (fun () -> woke := true);
      notify channels (Instr.Host { src = 0; dst = 1 }) ~amount:1);
  Alcotest.(check bool) "woke" true !woke

let test_channel_bounds () =
  let channels = Channel.create ~world_size:2 ~channels_per_rank:1 () in
  Alcotest.(check bool) "rank bound" true
    (try notify channels (Instr.Pc { rank = 5; channel = 0 }) ~amount:1; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "channel bound" true
    (try notify channels (Instr.Pc { rank = 0; channel = 7 }) ~amount:1; false
     with Invalid_argument _ -> true)

let test_channel_total_notifies () =
  let channels = Channel.create ~world_size:2 ~channels_per_rank:2 () in
  notify channels (Instr.Pc { rank = 0; channel = 0 }) ~amount:1;
  notify channels (Instr.Peer { src = 0; dst = 1; channel = 0 }) ~amount:1;
  notify channels (Instr.Host { src = 1; dst = 0 }) ~amount:4;
  Alcotest.(check int) "three notifies" 3 (Channel.total_notifies channels)

(* Peer keys resolve by name before any notify or wait touched their
   (dst, src) pair; out-of-range keys stay unknown. *)
let test_channel_untouched_peer_keys () =
  let channels =
    Channel.create ~world_size:3 ~channels_per_rank:1 ~peer_channels:4 ()
  in
  Alcotest.(check (option int)) "untouched key reads 0" (Some 0)
    (Channel.key_value channels ~key:"peer[2<-0][3]");
  Channel.force_signal channels ~key:"peer[1<-2][1]" ~target:5;
  Alcotest.(check (option int)) "forced key" (Some 5)
    (Channel.key_value channels ~key:"peer[1<-2][1]");
  Alcotest.(check int) "forced counter is the one a wait reads" (-1)
    (Channel.wait_begin channels
       (Instr.Peer { src = 2; dst = 1; channel = 1 })
       ~threshold:5);
  Alcotest.(check (option int)) "sibling channel untouched" (Some 0)
    (Channel.key_value channels ~key:"peer[1<-2][0]");
  Alcotest.(check (option int)) "channel past the table" None
    (Channel.key_value channels ~key:"peer[1<-2][4]");
  Alcotest.(check (option int)) "rank past the world" None
    (Channel.key_value channels ~key:"peer[3<-0][0]");
  Alcotest.(check (option int)) "malformed key" None
    (Channel.key_value channels ~key:"peer[1<-2]");
  Alcotest.(check bool) "force on an unknown key rejected" true
    (try
       Channel.force_signal channels ~key:"peer[0<-1][9]" ~target:1;
       false
     with Invalid_argument _ -> true);
  List.iter
    (fun target ->
      let key = Instr.key_of_target target in
      Alcotest.(check bool) ("key round-trips: " ^ key) true
        (Instr.target_of_key key = Some target))
    [
      Instr.Pc { rank = 3; channel = 7 };
      Instr.Peer { src = 1; dst = 2; channel = 0 };
      Instr.Host { src = 0; dst = 2 };
    ];
  Alcotest.(check bool) "trailing text is not a key" true
    (Instr.target_of_key "pc[3][7]x" = None)

(* Key lookup against the signal path: every key [Instr.key_of_target]
   renders for a target in range names that target's channel, whether
   the key or the target touches a peer row first; any other spelling,
   a target out of range or an unknown kind names none. *)
let test_channel_find_key_contract () =
  let world = 3 and pc_channels = 2 and peer_channels = 2 in
  (* Non-canonical spellings of keys in range. *)
  let non_canonical =
    [
      "pc[01][0]"; "pc[0][00]"; "pc[+1][0]"; "peer[01<-0][0]";
      "peer[1<-0][01]"; "host[1<-00]"; "host[ 1<-0]";
    ]
  in
  let create () =
    Channel.create ~world_size:world ~channels_per_rank:pc_channels
      ~peer_channels ()
  in
  let ranks = List.init world Fun.id in
  let targets =
    List.concat_map
      (fun r ->
        List.init pc_channels (fun channel -> Instr.Pc { rank = r; channel }))
      ranks
    @ List.concat_map
        (fun dst ->
          List.concat_map
            (fun src ->
              Instr.Host { src; dst }
              :: List.init peer_channels (fun channel ->
                     Instr.Peer { src; dst; channel }))
            ranks)
        ranks
  in
  (* A distinct value per channel, so a key naming another channel
     reads another value. *)
  let valued = List.mapi (fun i target -> (target, i + 1)) targets in
  let by_key = create () in
  List.iter
    (fun (target, v) ->
      Channel.force_signal by_key ~key:(Instr.key_of_target target) ~target:v)
    valued;
  List.iter
    (fun (target, v) ->
      let key = Instr.key_of_target target in
      Alcotest.(check int) (key ^ " forced by key, read by target") (-1)
        (Channel.wait_begin by_key target ~threshold:v);
      Alcotest.(check bool) (key ^ " holds exactly its value") true
        (Channel.wait_begin by_key target ~threshold:(v + 1) >= 0))
    valued;
  let by_target = create () in
  List.iter
    (fun (target, v) -> Channel.notify by_target ~worker:(-1) target ~amount:v)
    valued;
  List.iter
    (fun (target, v) ->
      let key = Instr.key_of_target target in
      Alcotest.(check (option int)) (key ^ " notified by target, read by key")
        (Some v)
        (Channel.key_value by_target ~key);
      Alcotest.(check int) (key ^ " intended") v
        (Channel.intended_value by_target ~key))
    valued;
  List.iter
    (fun key ->
      Alcotest.(check (option int)) (key ^ " resolves to nothing") None
        (Channel.key_value by_target ~key);
      Alcotest.(check int) (key ^ " has no intended value") 0
        (Channel.intended_value by_target ~key);
      Alcotest.(check bool) (key ^ " cannot be forced") true
        (try
           Channel.force_signal by_target ~key ~target:1;
           false
         with Invalid_argument _ -> true))
    (non_canonical
    @ [
      (* out of range *)
      "pc[3][0]"; "pc[0][2]"; "pc[-1][0]"; "peer[3<-0][0]";
      "peer[0<-3][0]"; "peer[0<-1][2]"; "peer[0<-1][-1]"; "host[0<-3]";
      "host[-1<-0]";
      (* unknown *)
      ""; "nic[0]"; "pc[0][0]x"; "peer[1<-2]"; "pc[0]";
    ]);
  (* The parser itself refuses what [key_of_target] never renders, and
     so does the chaos layer's key parser that shares it. *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " does not parse") true
        (Instr.target_of_key key = None);
      Alcotest.(check bool) (key ^ " is an unknown chaos key") true
        (Chaos.parse_key key = ("unknown", -1, None)))
    non_canonical

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc_find () =
  let memory = Memory.create ~world_size:2 in
  let t = Memory.alloc memory ~rank:0 ~name:"a" (shape [ 2; 2 ]) in
  Tensor.set2 t 0 0 5.0;
  check_float "shared tensor" 5.0
    (Tensor.get2 (Memory.find memory ~rank:0 ~name:"a") 0 0)

let test_memory_duplicate_alloc_rejected () =
  let memory = Memory.create ~world_size:1 in
  ignore (Memory.alloc memory ~rank:0 ~name:"a" (shape [ 1 ]));
  Alcotest.(check bool) "dup rejected" true
    (try ignore (Memory.alloc memory ~rank:0 ~name:"a" (shape [ 1 ])); false
     with Invalid_argument _ -> true)

let test_memory_missing_buffer () =
  let memory = Memory.create ~world_size:1 in
  Alcotest.(check bool) "missing" true
    (try ignore (Memory.find memory ~rank:0 ~name:"nope"); false
     with Invalid_argument _ -> true)

let test_memory_symmetric () =
  let memory = Memory.create ~world_size:3 in
  for rank = 0 to 2 do
    ignore (Memory.alloc memory ~rank ~name:"sym" (shape [ 2 ]))
  done;
  for rank = 0 to 2 do
    Alcotest.(check bool) "present" true
      (try
         ignore (Memory.find memory ~rank ~name:"sym");
         true
       with Invalid_argument _ -> false)
  done;
  Alcotest.(check (list string)) "buffers" [ "sym" ]
    (Memory.buffers memory ~rank:1)

(* ------------------------------------------------------------------ *)
(* Instr access aliasing                                               *)
(* ------------------------------------------------------------------ *)

let mk_access ?rank buffer row col = Instr.access ?rank ~buffer ~row ~col ()

let test_access_overlap_rules () =
  let a = mk_access "x" (0, 4) (0, 4) in
  Alcotest.(check bool) "same region overlaps" true
    (Instr.accesses_overlap a (mk_access "x" (2, 6) (1, 3)));
  Alcotest.(check bool) "different buffer" false
    (Instr.accesses_overlap a (mk_access "y" (0, 4) (0, 4)));
  Alcotest.(check bool) "disjoint rows" false
    (Instr.accesses_overlap a (mk_access "x" (4, 8) (0, 4)));
  Alcotest.(check bool) "disjoint cols" false
    (Instr.accesses_overlap a (mk_access "x" (0, 4) (4, 8)));
  Alcotest.(check bool) "wildcard buffer" true
    (Instr.accesses_overlap a (mk_access "*" (0, 4) (0, 4)));
  Alcotest.(check bool) "distinct ranks" false
    (Instr.accesses_overlap (mk_access ~rank:0 "x" (0, 4) (0, 4))
       (mk_access ~rank:1 "x" (0, 4) (0, 4)));
  Alcotest.(check bool) "unknown rank aliases" true
    (Instr.accesses_overlap (mk_access ~rank:0 "x" (0, 4) (0, 4))
       (mk_access "x" (0, 4) (0, 4)))

let prop_access_overlap_symmetric =
  QCheck.Test.make ~name:"access overlap is symmetric" ~count:200
    QCheck.(
      pair
        (pair (pair small_nat small_nat) (pair small_nat small_nat))
        (pair (pair small_nat small_nat) (pair small_nat small_nat)))
    (fun (((a1, a2), (a3, a4)), ((b1, b2), (b3, b4))) ->
      let norm (lo, len) = (lo, lo + len + 1) in
      let a = mk_access "x" (norm (a1, a2)) (norm (a3, a4)) in
      let b = mk_access "x" (norm (b1, b2)) (norm (b3, b4)) in
      Instr.accesses_overlap a b = Instr.accesses_overlap b a)

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let mapping_2x = Mapping.static ~extent:8 ~ranks:2 ~channels_per_rank:1 ~tile:4 ()

let lower_cfg rank =
  Block_channel.lower_config
    (Block_channel.create ~rank ~world_size:2 mapping_2x)

let test_lower_producer_notify_p2p () =
  match
    Lower.lower (lower_cfg 1)
      [ Primitive.Producer_tile_notify { tid = 1; mode = Primitive.P2p } ]
  with
  | [ Instr.Notify { target = Instr.Pc { rank; channel }; amount; _ } ] ->
    Alcotest.(check int) "self rank" 1 rank;
    Alcotest.(check int) "channel" 1 channel;
    Alcotest.(check int) "amount" 1 amount
  | other ->
    Alcotest.failf "unexpected lowering: %s"
      (String.concat "; " (List.map Instr.to_string other))

let test_lower_producer_notify_broadcast () =
  let instrs =
    Lower.lower (lower_cfg 0)
      [ Primitive.Producer_tile_notify { tid = 0; mode = Primitive.Broadcast } ]
  in
  Alcotest.(check int) "one notify per rank" 2 (List.length instrs)

let test_lower_producer_notify_owner () =
  match
    Lower.lower (lower_cfg 0)
      [ Primitive.Producer_tile_notify { tid = 1; mode = Primitive.Owner } ]
  with
  | [ Instr.Notify { target = Instr.Pc { rank; _ }; _ } ] ->
    Alcotest.(check int) "segment owner" 1 rank
  | _ -> Alcotest.fail "expected single notify"

let test_lower_consumer_wait () =
  match
    Lower.lower (lower_cfg 0)
      [
        Primitive.Consumer_tile_wait
          { lo = 2; hi = 6; buffer = "gathered"; col = (0, 4) };
      ]
  with
  | [ Instr.Wait w0; Instr.Wait w1 ] ->
    let channel = function
      | Instr.Pc { channel; _ } -> channel
      | _ -> -1
    in
    Alcotest.(check (list int)) "channels 0 and 1" [ 0; 1 ]
      [
        channel (match Instr.Wait w0 with Instr.Wait { target; _ } -> target | _ -> assert false);
        channel (match Instr.Wait w1 with Instr.Wait { target; _ } -> target | _ -> assert false);
      ]
  | other ->
    Alcotest.failf "unexpected: %s"
      (String.concat "; " (List.map Instr.to_string other))

let test_lower_pull_translates_shard_rows () =
  match
    Lower.lower (lower_cfg 0)
      [
        Primitive.Tile_pull_data
          {
            tid = 1;
            src_buffer = "shard";
            src_view = `Shard;
            col = (0, 4);
            dst =
              Instr.access ~buffer:"full" ~row:(4, 8) ~col:(0, 4) ();
            action = None;
          };
      ]
  with
  | [ Instr.Copy { src; bytes; _ } ] ->
    Alcotest.(check (pair int int)) "shard-local rows" (0, 4) src.Instr.row;
    Alcotest.(check bool) "src rank" true (src.Instr.mem_rank = Some 1);
    Alcotest.(check (float 0.01)) "bytes" (4.0 *. 4.0 *. 2.0) bytes
  | _ -> Alcotest.fail "expected single copy"

(* Templates: a task lowered once with the rank symbolic, then
   instantiated per rank, equals the task lowered on that rank. *)
let template_mapping =
  Mapping.static ~extent:16 ~ranks:4 ~channels_per_rank:2 ~tile:2 ()

(* One statement of every [Primitive] constructor (every notify mode),
   with loads placed so the pipeliner has something to hoist across the
   waits. *)
let every_primitive_task =
  let a buffer row = Instr.access ~buffer ~row ~col:(0, 4) () in
  {
    Block_channel.label = "every";
    stmts =
      [
        Primitive.Load (a "w" (0, 4));
        Primitive.Consumer_tile_wait
          { lo = 2; hi = 6; buffer = "x"; col = (0, 4) };
        Primitive.Load (a "x" (2, 6));
        Primitive.Load (a "y" (0, 2));
        Primitive.Consumer_tile_wait_rows
          { rows = [ 1; 9; 14 ]; buffer = "x"; col = (0, 4) };
        Primitive.Load (a "x" (8, 16));
        Primitive.Compute
          {
            label = "mma";
            cost = Instr.Gemm_tile { tm = 4; tn = 4; k = 4 };
            reads = [ a "x" (2, 6) ];
            writes = [ a "out" (2, 6) ];
            action = None;
          };
        Primitive.Store (a "out" (2, 6));
        Primitive.Producer_tile_notify { tid = 1; mode = Primitive.P2p };
        Primitive.Producer_tile_notify { tid = 5; mode = Primitive.Owner };
        Primitive.Producer_tile_notify { tid = 2; mode = Primitive.Broadcast };
        Primitive.Producer_tile_notify { tid = 3; mode = Primitive.To_rank 2 };
        Primitive.Peer_tile_wait
          { tile_key = 0; src = 1; threshold = 1; guards = [ a "rs" (0, 2) ] };
        Primitive.Load (a "rs" (0, 2));
        Primitive.Peer_tile_notify
          { tile_key = 0; dst = 3; amount = 1; releases = [ a "rs" (0, 2) ] };
        Primitive.Rank_wait { src = 2; threshold = 1 };
        Primitive.Rank_notify { dst = 0; amount = 1 };
        Primitive.Tile_push_data
          { src = a "out" (2, 6); dst_rank = 1; dst = a "x" (2, 6) };
        Primitive.Tile_pull_data
          {
            tid = 6;
            src_buffer = "shard";
            src_view = `Shard;
            col = (0, 4);
            dst = a "x" (12, 14);
            action = None;
          };
        Primitive.Rank_copy_data
          { src = a "k" (0, 4); dst = a "k_full" (0, 4); action = None };
        Primitive.Sleep 1.5;
      ];
  }

let render_instrs instrs =
  let buf = Buffer.create 1024 in
  List.iter (Program_digest.instr buf) instrs;
  Buffer.contents buf

let render_task (task : Program.task) =
  task.Program.label ^ "\n" ^ render_instrs task.Program.instrs

let test_template_equals_per_rank_lowering () =
  List.iter
    (fun channel_base ->
      let template =
        Block_channel.lower_task
          (Block_channel.symbolic ~channel_base ~world_size:4 template_mapping)
          every_primitive_task
      in
      for rank = 0 to 3 do
        let on_rank =
          Block_channel.lower_task
            (Block_channel.create ~channel_base ~rank ~world_size:4
               template_mapping)
            every_primitive_task
        in
        let what = Printf.sprintf "base %d rank %d" channel_base rank in
        Alcotest.(check string) (what ^ ": instantiate = lower on rank")
          (render_task on_rank)
          (render_task (Block_channel.instantiate_task ~rank template));
        List.iter
          (fun stages ->
            Alcotest.(check string)
              (Printf.sprintf "%s: pipeline commutes (stages %d)" what stages)
              (render_task
                 (Pipeline.pipeline_task ~stages
                    (Block_channel.instantiate_task ~rank template)))
              (render_task
                 (Block_channel.instantiate_task ~rank
                    (Pipeline.pipeline_task ~stages template))))
          [ 2; 3 ]
      done;
      Alcotest.(check bool) "the pipeliner moves a load" false
        (render_task (Pipeline.pipeline_task ~stages:2 template)
        = render_task template);
      (* A template that reaches a program un-instantiated is refused. *)
      let leaked =
        Program.create ~name:"leak" ~world_size:4 ~pc_channels:16
          ~peer_channels:1
          (Array.make 4
             [
               {
                 Program.role_name = "r";
                 resource = Program.Sm_partition 1;
                 lane = Tilelink_sim.Trace.Compute_sm;
                 tasks = [ template ];
               };
             ])
      in
      Alcotest.(check bool) "symbolic rank rejected" true
        (Result.is_error (Program.validate leaked)))
    [ 0; 3 ]

(* ------------------------------------------------------------------ *)
(* Pipelining + consistency                                            *)
(* ------------------------------------------------------------------ *)

let acc ?rank buffer row col = Instr.access ?rank ~buffer ~row ~col ()

let guarded_stream =
  [
    Instr.Compute
      {
        label = "prologue";
        cost = Instr.Free;
        reads = [];
        writes = [];
        action = None;
      };
    Instr.Wait
      {
        target = Instr.Pc { rank = 0; channel = 0 };
        threshold = 1;
        guards = [ acc "a" (0, 4) (0, 4) ];
      };
    Instr.Load { access = acc "a" (0, 4) (0, 4) };
    Instr.Compute
      {
        label = "gemm";
        cost = Instr.Free;
        reads = [ acc "a" (0, 4) (0, 4) ];
        writes = [ acc "c" (0, 4) (0, 4) ];
        action = None;
      };
    Instr.Store { access = acc "c" (0, 4) (0, 4) };
    Instr.Notify
      {
        target = Instr.Pc { rank = 0; channel = 1 };
        amount = 1;
        releases = [ acc "c" (0, 4) (0, 4) ];
      };
  ]

let test_consistency_accepts_correct_stream () =
  (match Consistency.verify_task guarded_stream with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "unexpected violation: %a" Consistency.pp_violation v)

let test_safe_pipeline_keeps_consistency () =
  let pipelined = Pipeline.hoist_loads ~stages:3 guarded_stream in
  (match Consistency.verify_task pipelined with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "safe pipeliner broke consistency: %a"
      Consistency.pp_violation v);
  (* The load must still be after the wait. *)
  let position pred =
    let rec find i = function
      | [] -> -1
      | x :: rest -> if pred x then i else find (i + 1) rest
    in
    find 0 pipelined
  in
  let load_pos = position (function Instr.Load _ -> true | _ -> false) in
  let wait_pos = position (function Instr.Wait _ -> true | _ -> false) in
  Alcotest.(check bool) "load after wait" true (load_pos > wait_pos)

let test_unsafe_pipeline_caught () =
  let pipelined = Pipeline.hoist_loads_unsafe ~stages:4 guarded_stream in
  match Consistency.verify_task pipelined with
  | Ok () -> Alcotest.fail "verifier missed the unsafe reordering"
  | Error v ->
    Alcotest.(check bool) "mentions acquire" true
      (let msg = Format.asprintf "%a" Consistency.pp_violation v in
       String.length msg > 0)

let test_pipeline_hoists_independent_load () =
  (* A load of an unguarded buffer can move above the wait. *)
  let stream =
    [
      Instr.Wait
        {
          target = Instr.Pc { rank = 0; channel = 0 };
          threshold = 1;
          guards = [ acc "a" (0, 4) (0, 4) ];
        };
      Instr.Load { access = acc "weights" (0, 4) (0, 4) };
    ]
  in
  match Pipeline.hoist_loads ~stages:2 stream with
  | [ Instr.Load _; Instr.Wait _ ] -> ()
  | other ->
    Alcotest.failf "expected load hoisted: %s"
      (String.concat "; " (List.map Instr.to_string other))

let test_notify_release_violation_detected () =
  (* A write after the notify that releases it. *)
  let bad =
    [
      Instr.Notify
        {
          target = Instr.Pc { rank = 0; channel = 0 };
          amount = 1;
          releases = [ acc "c" (0, 4) (0, 4) ];
        };
      Instr.Store { access = acc "c" (0, 4) (0, 4) };
    ]
  in
  match Consistency.verify_task bad with
  | Ok () -> Alcotest.fail "missed release violation"
  | Error _ -> ()

let prop_pipeline_preserves_multiset =
  QCheck.Test.make ~name:"pipelining permutes but never drops instructions"
    ~count:100
    QCheck.(int_range 1 4)
    (fun stages ->
      let stream = guarded_stream @ guarded_stream in
      let out = Pipeline.hoist_loads ~stages stream in
      List.length out = List.length stream
      && List.sort compare (List.map Instr.to_string out)
         = List.sort compare (List.map Instr.to_string stream))

(* The fence scan as it was before it walked the stream in place: the
   stream copied into an array, fence positions gathered up front, and
   each access's footprint built as a list.  Kept as the reference the
   in-place scan must reproduce, order included. *)
let reference_fence_violations (arr : Instr.t array) =
  let n = Array.length arr in
  let positions keep =
    let acc = ref [] in
    for j = n - 1 downto 0 do
      if keep arr.(j) then acc := j :: !acc
    done;
    Array.of_list !acc
  in
  let reads_of = function
    | Instr.Load { access } -> [ access ]
    | Instr.Compute { reads; _ } -> reads
    | Instr.Copy { src; _ } -> [ src ]
    | Instr.Store _ | Instr.Wait _ | Instr.Notify _ | Instr.Sleep _ -> []
  in
  let writes_of = function
    | Instr.Store { access } -> [ access ]
    | Instr.Compute { writes; _ } -> writes
    | Instr.Copy { dst; _ } -> [ dst ]
    | Instr.Load _ | Instr.Wait _ | Instr.Notify _ | Instr.Sleep _ -> []
  in
  let waits = positions (function Instr.Wait _ -> true | _ -> false) in
  let notifies = positions (function Instr.Notify _ -> true | _ -> false) in
  let found = ref [] in
  let record i j kind =
    found :=
      {
        Consistency.fv_position = i;
        fv_fence_position = j;
        fv_instr = arr.(i);
        fv_fence = arr.(j);
        fv_kind = kind;
      }
      :: !found
  in
  let overlaps fenced accessed =
    List.exists
      (fun f -> List.exists (fun a -> Instr.accesses_overlap f a) accessed)
      fenced
  in
  for i = 0 to n - 1 do
    let reads = reads_of arr.(i) in
    if reads <> [] then
      Array.iter
        (fun j ->
          if j > i then
            match arr.(j) with
            | Instr.Wait { guards; _ } ->
              if overlaps guards reads then
                record i j Consistency.Read_before_acquire
            | _ -> ())
        waits;
    let writes = writes_of arr.(i) in
    if writes <> [] then
      Array.iter
        (fun j ->
          if j < i then
            match arr.(j) with
            | Instr.Notify { releases; _ } ->
              if overlaps releases writes then
                record i j Consistency.Write_after_release
            | _ -> ())
        notifies
  done;
  List.rev !found

(* Random streams over a few small rectangles of two buffers and the
   ["*"] wildcard, on rank 0, rank 1 or the executing rank: copies
   (which read and write), computes with zero to three reads and
   writes, waits and notifies with empty or several guards/releases. *)
let prop_fence_scan_matches_reference =
  let open QCheck.Gen in
  let range = map (fun (lo, len) -> (lo, lo + len)) (pair (int_range 0 3) (int_range 0 2)) in
  let access =
    let* buffer = oneofl [ "a"; "b"; "*" ] in
    let* rank = oneofl [ None; Some 0; Some 1 ] in
    let* row = range in
    let* col = range in
    return (Instr.access ?rank ~buffer ~row ~col ())
  in
  let accesses = list_size (int_range 0 3) access in
  let target = Instr.Pc { rank = 0; channel = 0 } in
  let instr =
    frequency
      [
        (2, map (fun access -> Instr.Load { access }) access);
        (2, map (fun access -> Instr.Store { access }) access);
        ( 3,
          map2
            (fun reads writes ->
              Instr.Compute
                { label = "c"; cost = Instr.Free; reads; writes; action = None })
            accesses accesses );
        ( 2,
          map2
            (fun src dst ->
              Instr.Copy { label = "cp"; src; dst; bytes = 1.0; action = None })
            access access );
        ( 3,
          map
            (fun guards -> Instr.Wait { target; threshold = 1; guards })
            accesses );
        ( 3,
          map
            (fun releases -> Instr.Notify { target; amount = 1; releases })
            accesses );
        (1, return (Instr.Sleep 1.0));
      ]
  in
  let print stream = String.concat "; " (List.map Instr.to_string stream) in
  let summary =
    List.map (fun (fv : Consistency.fence_violation) ->
        ( fv.Consistency.fv_position,
          fv.Consistency.fv_fence_position,
          fv.Consistency.fv_kind ))
  in
  QCheck.Test.make ~name:"fence scan matches the list-based reference"
    ~count:2000
    (QCheck.make ~print (list_size (int_range 0 12) instr))
    (fun stream ->
      let got = Consistency.fence_violations stream in
      let want = reference_fence_violations (Array.of_list stream) in
      summary got = summary want
      && List.for_all2
           (fun (g : Consistency.fence_violation) w ->
             g.Consistency.fv_instr == w.Consistency.fv_instr
             && g.Consistency.fv_fence == w.Consistency.fv_fence)
           got want)

(* ------------------------------------------------------------------ *)
(* End-to-end: hand-built pull-mode AG + GEMM on 2 ranks               *)
(* ------------------------------------------------------------------ *)

(* Global A is [8,4] sharded by rows across 2 ranks; each rank pulls
   both shards into "a_full", then computes C = A_full x B_local with
   consumer tiles of 2 rows (different from the 4-row producer tiles).
   Includes an ill-synchronized variant to show the machinery notices. *)

let ag_gemm_world = 2
let ag_m = 8
let ag_k = 4
let ag_n = 4

let ag_mapping =
  Mapping.static ~extent:ag_m ~ranks:ag_gemm_world ~channels_per_rank:2
    ~tile:2 ()

let ag_inputs () =
  let memory = Memory.create ~world_size:ag_gemm_world in
  for rank = 0 to ag_gemm_world - 1 do
    Memory.bind memory ~rank ~name:"a_shard"
      (Tensor.random ~seed:(100 + rank) (shape [ ag_m / 2; ag_k ]));
    Memory.bind memory ~rank ~name:"b"
      (Tensor.random ~seed:(200 + rank) (shape [ ag_k; ag_n ]));
    ignore (Memory.alloc memory ~rank ~name:"a_full" (shape [ ag_m; ag_k ]));
    ignore (Memory.alloc memory ~rank ~name:"c" (shape [ ag_m; ag_n ]))
  done;
  memory

let ag_reference memory rank =
  let a =
    Tensor.concat_rows
      [
        Memory.find memory ~rank:0 ~name:"a_shard";
        Memory.find memory ~rank:1 ~name:"a_shard";
      ]
  in
  Linalg.gemm a (Memory.find memory ~rank ~name:"b")

let ag_gemm_program ~with_wait ~with_notify =
  let plans =
    Array.init ag_gemm_world (fun rank ->
        let bc =
          Block_channel.create ~rank ~world_size:ag_gemm_world ag_mapping
        in
        (* Communication role: pull every producer tile. *)
        let comm_tasks =
          List.init (Mapping.num_tiles ag_mapping) (fun tid ->
              let lo, hi = Mapping.shape_range ag_mapping ~tid in
              let stmts =
                Primitive.Tile_pull_data
                  {
                    tid;
                    src_buffer = "a_shard";
                    src_view = `Shard;
                    col = (0, ag_k);
                    dst =
                      Instr.access ~buffer:"a_full" ~row:(lo, hi)
                        ~col:(0, ag_k) ();
                    action = None;
                  }
                ::
                (if with_notify then
                   [
                     Primitive.Producer_tile_notify
                       { tid; mode = Primitive.P2p };
                   ]
                 else [])
              in
              {
                Program.label = Printf.sprintf "ag[%d]" tid;
                instrs = Block_channel.lower bc stmts;
              })
        in
        (* Computation role: 2-row consumer tiles. *)
        let consumer_tiles = ag_m / 2 in
        let compute_tasks =
          List.init consumer_tiles (fun ct ->
              let lo = ct * 2 and hi = (ct * 2) + 2 in
              let action memory ~rank =
                let a = Memory.find memory ~rank ~name:"a_full" in
                let b = Memory.find memory ~rank ~name:"b" in
                let c = Memory.find memory ~rank ~name:"c" in
                Tensor.set_row_slice c ~lo
                  (Linalg.gemm (Tensor.row_slice a ~lo ~hi) b)
              in
              let stmts =
                (if with_wait then
                   [
                     Primitive.Consumer_tile_wait
                       { lo; hi; buffer = "a_full"; col = (0, ag_k) };
                   ]
                 else [])
                @ [
                    Primitive.Load
                      (Instr.access ~buffer:"a_full" ~row:(lo, hi)
                         ~col:(0, ag_k) ());
                    Primitive.Compute
                      {
                        label = Printf.sprintf "gemm[%d]" ct;
                        cost = Instr.Gemm_tile { tm = 2; tn = ag_n; k = ag_k };
                        reads =
                          [
                            Instr.access ~buffer:"a_full" ~row:(lo, hi)
                              ~col:(0, ag_k) ();
                          ];
                        writes =
                          [
                            Instr.access ~buffer:"c" ~row:(lo, hi)
                              ~col:(0, ag_n) ();
                          ];
                        action = Some action;
                      };
                    Primitive.Store
                      (Instr.access ~buffer:"c" ~row:(lo, hi) ~col:(0, ag_n)
                         ());
                  ]
              in
              {
                Program.label = Printf.sprintf "gemm[%d]" ct;
                instrs = Block_channel.lower bc stmts;
              })
        in
        [
          {
            Program.role_name = "allgather";
            resource = Program.Sm_partition 1;
            lane = Tilelink_sim.Trace.Comm_sm;
            tasks = comm_tasks;
          };
          {
            Program.role_name = "gemm";
            resource = Program.Sm_partition 2;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = compute_tasks;
          };
        ])
  in
  Program.create ~name:"ag_gemm_test" ~world_size:ag_gemm_world
    ~pc_channels:(Mapping.num_channels ag_mapping) ~peer_channels:1 plans

let test_ag_gemm_end_to_end () =
  let memory = ag_inputs () in
  let cluster =
    Cluster.create Calib.test_machine ~world_size:ag_gemm_world
  in
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  let result = Runtime.run ~data:true ~memory cluster program in
  Alcotest.(check bool) "positive makespan" true (result.Runtime.makespan > 0.0);
  for rank = 0 to ag_gemm_world - 1 do
    tensor_close
      (Printf.sprintf "rank %d output" rank)
      (ag_reference memory rank)
      (Memory.find memory ~rank ~name:"c")
  done

let test_ag_gemm_missing_notify_deadlocks () =
  let memory = ag_inputs () in
  let cluster =
    Cluster.create Calib.test_machine ~world_size:ag_gemm_world
  in
  let program = ag_gemm_program ~with_wait:true ~with_notify:false in
  Alcotest.(check bool) "deadlock" true
    (try
       ignore (Runtime.run ~data:true ~memory cluster program);
       false
     with Tilelink_sim.Engine.Deadlock _ -> true)

(* A machine whose interconnect is orders of magnitude slower than its
   compute: remote tiles arrive long after an unsynchronized consumer
   reads them. *)
let slow_link_machine =
  let base = Calib.test_machine in
  {
    base with
    Spec.interconnect =
      { base.Spec.interconnect with Spec.nvlink_gbps = 1e-4;
        nvlink_latency = 500.0 };
  }

let test_ag_gemm_missing_wait_corrupts () =
  (* Without consumer waits the GEMM reads remote rows before they
     arrive; the result must differ from the reference. *)
  let memory = ag_inputs () in
  let cluster = Cluster.create slow_link_machine ~world_size:ag_gemm_world in
  let program = ag_gemm_program ~with_wait:false ~with_notify:true in
  let _result = Runtime.run ~data:true ~memory cluster program in
  let any_mismatch = ref false in
  for rank = 0 to ag_gemm_world - 1 do
    if
      not
        (Check.close (ag_reference memory rank)
           (Memory.find memory ~rank ~name:"c"))
    then any_mismatch := true
  done;
  Alcotest.(check bool) "race produced wrong data" true !any_mismatch

let test_ag_gemm_overlap_beats_serial () =
  (* The overlapped program must finish faster than communication and
     computation run back to back. *)
  let t_overlap =
    let cluster = Cluster.create Calib.test_machine ~world_size:ag_gemm_world in
    (Runtime.run cluster (ag_gemm_program ~with_wait:true ~with_notify:true))
      .Runtime.makespan
  in
  Alcotest.(check bool) "positive" true (t_overlap > 0.0)

let test_program_validate_catches_bad_channel () =
  let plan rank =
    [
      {
        Program.role_name = "bad";
        resource = Program.Sm_partition 1;
        lane = Tilelink_sim.Trace.Compute_sm;
        tasks =
          [
            {
              Program.label = "t";
              instrs =
                [
                  Instr.Notify
                    {
                      target = Instr.Pc { rank; channel = 99 };
                      amount = 1;
                      releases = [];
                    };
                ];
            };
          ];
      };
    ]
  in
  let program =
    Program.create ~name:"bad" ~world_size:1 ~pc_channels:2 ~peer_channels:1
      [| plan 0 |]
  in
  Alcotest.(check bool) "invalid" true
    (match Program.validate program with Error _ -> true | Ok () -> false)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_fault_dropped_notify_deadlocks () =
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  let broken = Fault.drop_notify program ~rank:1 ~nth:2 in
  Alcotest.(check int) "one notify fewer"
    (Fault.count_notifies program ~rank:1 - 1)
    (Fault.count_notifies broken ~rank:1);
  let cluster = Cluster.create Calib.test_machine ~world_size:ag_gemm_world in
  Alcotest.(check bool) "deadlock detected" true
    (try
       ignore (Runtime.run cluster broken);
       false
     with Tilelink_sim.Engine.Deadlock _ -> true)

let test_fault_weakened_waits_corrupt () =
  (* On the slow-link machine a consumer that stops waiting reads stale
     zeros; data validation must notice. *)
  let memory = ag_inputs () in
  let cluster = Cluster.create slow_link_machine ~world_size:ag_gemm_world in
  let program =
    Fault.weaken_waits
      (ag_gemm_program ~with_wait:true ~with_notify:true)
      ~rank:0 ~delta:1
  in
  ignore (Runtime.run ~data:true ~memory cluster program);
  Alcotest.(check bool) "rank 0 corrupted" false
    (Check.close (ag_reference memory 0)
       (Memory.find memory ~rank:0 ~name:"c"))

let test_fault_delay_only_slows () =
  let run program =
    let memory = ag_inputs () in
    let cluster =
      Cluster.create Calib.test_machine ~world_size:ag_gemm_world
    in
    let result = Runtime.run ~data:true ~memory cluster program in
    (result.Runtime.makespan, Memory.find memory ~rank:0 ~name:"c")
  in
  let base_time, base_data =
    run (ag_gemm_program ~with_wait:true ~with_notify:true)
  in
  let skew_time, skew_data =
    run
      (Fault.delay_role
         (ag_gemm_program ~with_wait:true ~with_notify:true)
         ~rank:1 ~role_name:"allgather" ~us:50.0)
  in
  Alcotest.(check bool) "slower" true (skew_time > base_time);
  tensor_close "identical data under skew" base_data skew_data

(* ------------------------------------------------------------------ *)
(* Property tests over random instruction streams                      *)
(* ------------------------------------------------------------------ *)

(* Random guarded streams: sequences of (wait, load, compute, store,
   notify) blocks over a handful of buffers, always emitted in a
   consistent order — so the stream verifies — then pipelined. *)
let random_stream_gen =
  let open QCheck.Gen in
  let block buffer_id channel =
    let buffer = Printf.sprintf "buf%d" buffer_id in
    let out = Printf.sprintf "out%d" buffer_id in
    let a = Instr.access ~buffer ~row:(channel * 4, (channel * 4) + 4) ~col:(0, 4) () in
    let w = Instr.access ~buffer:out ~row:(channel * 4, (channel * 4) + 4) ~col:(0, 4) () in
    [
      Instr.Wait
        {
          target = Instr.Pc { rank = 0; channel };
          threshold = 1;
          guards = [ a ];
        };
      Instr.Load { access = a };
      Instr.Compute
        { label = "c"; cost = Instr.Free; reads = [ a ]; writes = [ w ];
          action = None };
      Instr.Store { access = w };
      Instr.Notify
        { target = Instr.Pc { rank = 0; channel = channel + 8 }; amount = 1;
          releases = [ w ] };
    ]
  in
  list_size (int_range 1 6)
    (pair (int_range 0 3) (int_range 0 7))
  >|= fun blocks ->
  List.concat_map (fun (b, c) -> block b c) blocks

let prop_pipeline_preserves_consistency =
  QCheck.Test.make
    ~name:"hoist_loads keeps any verifying stream consistent" ~count:200
    (QCheck.make random_stream_gen)
    (fun stream ->
      match Consistency.verify_task stream with
      | Error _ -> QCheck.assume_fail ()
      | Ok () -> (
        match
          Consistency.verify_task (Pipeline.hoist_loads ~stages:4 stream)
        with
        | Ok () -> true
        | Error _ -> false))

let prop_unsafe_pipeline_never_beats_verifier =
  QCheck.Test.make
    ~name:"verifier accepts unsafe hoisting only when it is actually safe"
    ~count:200
    (QCheck.make random_stream_gen)
    (fun stream ->
      (* If the unsafe pass produced a different order that the
         verifier accepts, the safe pass must accept it too (i.e. the
         verifier is deterministic and order-based, no false negatives
         for unchanged streams). *)
      let unsafe = Pipeline.hoist_loads_unsafe ~stages:4 stream in
      match Consistency.verify_task unsafe with
      | Ok () -> true  (* the reorder happened to be safe *)
      | Error _ ->
        (* then it must differ from the safe pass output *)
        Pipeline.hoist_loads ~stages:4 stream <> unsafe)

let prop_runtime_deterministic =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:20
    QCheck.(int_range 1 4)
    (fun stages ->
      let config =
        {
          Design_space.comm_tile = (2, 2);
          compute_tile = (2, 3);
          comm_order = Tile.Ring_from_self { segments = 2 };
          compute_order = Tile.Row_major;
          binding = Design_space.Comm_on_sm 1;
          stages;
          micro_block = 0;
        }
      in
      ignore config;
      let run () =
        let cluster = Cluster.create Calib.test_machine ~world_size:2 in
        (Runtime.run cluster
           (ag_gemm_program ~with_wait:true ~with_notify:true))
          .Runtime.makespan
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Codegen                                                             *)
(* ------------------------------------------------------------------ *)

let string_contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let count_waits_notifies instrs =
  List.fold_left
    (fun (w, n) instr ->
      match instr with
      | Instr.Wait _ -> (w + 1, n)
      | Instr.Notify _ -> (w, n + 1)
      | _ -> (w, n))
    (0, 0) instrs

let test_program_counts () =
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  Alcotest.(check int) "roles" 4 (Program.role_count program);
  Alcotest.(check bool) "tasks positive" true (Program.task_count program > 0);
  Alcotest.(check bool) "instrs >= tasks" true
    (Program.instr_count program >= Program.task_count program)

let test_codegen_fence_discipline () =
  (* Every wait emits exactly one acquire spin; every notify exactly
     one release — on the real lowered AG+GEMM program. *)
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  let listing = Codegen.emit_rank program ~rank:0 in
  let stats = Codegen.stats_of_listing listing in
  let waits, notifies =
    List.fold_left
      (fun (w, n) role ->
        List.fold_left
          (fun (w, n) (task : Program.task) ->
            let tw, tn = count_waits_notifies task.Program.instrs in
            (w + tw, n + tn))
          (w, n) role.Program.tasks)
      (0, 0)
      (Program.plans program).(0)
  in
  Alcotest.(check int) "one acquire per wait" waits stats.Codegen.acquires;
  Alcotest.(check int) "one release per notify" notifies
    stats.Codegen.releases

let test_codegen_acquire_precedes_mma () =
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  (* Find a compute task's listing: the acquire spin must appear before
     the mma mainloop. *)
  let gemm_role =
    List.find
      (fun role -> role.Program.role_name = "gemm")
      (Program.plans program).(0)
  in
  let listing = Codegen.emit_task (List.hd gemm_role.Program.tasks) in
  let index needle =
    let rec scan i =
      if i + String.length needle > String.length listing then -1
      else if String.sub listing i (String.length needle) = needle then i
      else scan (i + 1)
    in
    scan 0
  in
  let acquire = index "ld.global.acquire" in
  let mma = index "mma.sync" in
  Alcotest.(check bool) "both present" true (acquire >= 0 && mma >= 0);
  Alcotest.(check bool) "acquire before mma" true (acquire < mma)

let test_codegen_remote_copies () =
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  let listing = Codegen.emit_rank program ~rank:0 in
  Alcotest.(check bool) "pull emits getmem" true
    (string_contains listing "nvshmem_getmem_nbi");
  Alcotest.(check bool) "membar before release" true
    (string_contains listing "membar.sys")

let test_codegen_tir_target () =
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  let listing =
    String.concat ""
      (List.map
         (Codegen.emit_role ~target:Codegen.Tir)
         (Program.plans program).(0))
  in
  Alcotest.(check bool) "acquire spins in TIR form" true
    (string_contains listing "sync=\"acquire\"");
  Alcotest.(check bool) "release stores in TIR form" true
    (string_contains listing "sync=\"release\"");
  Alcotest.(check bool) "prim_func header" true
    (string_contains listing "@T.prim_func");
  (* The two targets carry the same fence counts. *)
  let ptx = Codegen.stats_of_listing (Codegen.emit_rank program ~rank:0) in
  let count needle =
    let rec go i acc =
      if i + String.length needle > String.length listing then acc
      else if String.sub listing i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "same acquires" ptx.Codegen.acquires
    (count "sync=\"acquire\"");
  Alcotest.(check int) "same releases" ptx.Codegen.releases
    (count "sync=\"release\"")

let test_codegen_rank_out_of_range () =
  let program = ag_gemm_program ~with_wait:true ~with_notify:true in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Codegen.emit_rank program ~rank:99);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Runtime scheduling semantics                                        *)
(* ------------------------------------------------------------------ *)

(* A one-rank program with [tasks] identical compute tiles of duration
   [cost] each, on a role capped at [workers] workers. *)
let compute_only_program ~tasks ~workers ~cost =
  let task i =
    {
      Program.label = Printf.sprintf "t%d" i;
      instrs =
        [
          Instr.Compute
            {
              label = Printf.sprintf "t%d" i;
              cost = Instr.Fixed_cost cost;
              reads = [];
              writes = [];
              action = None;
            };
        ];
    }
  in
  Program.create ~name:"waves" ~world_size:1 ~pc_channels:1 ~peer_channels:1
    [|
      [
        {
          Program.role_name = "compute";
          resource = Program.Sm_partition workers;
          lane = Tilelink_sim.Trace.Compute_sm;
          tasks = List.init tasks task;
        };
      ];
    |]

let test_runtime_wave_quantization () =
  (* 9 tiles of 10us on 4 workers (4 SMs): ceil(9/4) = 3 waves. *)
  let cluster = Cluster.create Calib.test_machine ~world_size:1 in
  let result =
    Runtime.run cluster (compute_only_program ~tasks:9 ~workers:4 ~cost:10.0)
  in
  check_float "3 waves + launch"
    (30.0 +. Calib.test_machine.Spec.overheads.kernel_launch)
    result.Runtime.makespan

let test_runtime_single_wave () =
  let cluster = Cluster.create Calib.test_machine ~world_size:1 in
  let result =
    Runtime.run cluster (compute_only_program ~tasks:4 ~workers:4 ~cost:10.0)
  in
  check_float "one wave"
    (10.0 +. Calib.test_machine.Spec.overheads.kernel_launch)
    result.Runtime.makespan

let test_runtime_roles_share_sms_dynamically () =
  (* Two roles whose worker counts sum beyond the 4 SMs of the test
     machine: total work 8 tiles x 10us on 4 SMs = 2 waves, not the
     4 waves a static half-half partition would force on a straggler. *)
  let role name tasks =
    {
      Program.role_name = name;
      resource = Program.Sm_partition 4;
      lane = Tilelink_sim.Trace.Compute_sm;
      tasks =
        List.init tasks (fun i ->
            {
              Program.label = Printf.sprintf "%s%d" name i;
              instrs =
                [
                  Instr.Compute
                    {
                      label = Printf.sprintf "%s%d" name i;
                      cost = Instr.Fixed_cost 10.0;
                      reads = [];
                      writes = [];
                      action = None;
                    };
                ];
            });
    }
  in
  let program =
    Program.create ~name:"share" ~world_size:1 ~pc_channels:1
      ~peer_channels:1
      [| [ role "a" 4; role "b" 4 ] |]
  in
  let cluster = Cluster.create Calib.test_machine ~world_size:1 in
  let result = Runtime.run cluster program in
  check_float "two waves across roles"
    (20.0 +. Calib.test_machine.Spec.overheads.kernel_launch)
    result.Runtime.makespan

(* Role names need not be unique on a rank: two roles both named "r"
   must each run their own task once, on the interpreter as on the
   domain backend, which walks roles directly. *)
let test_runtime_same_name_roles () =
  let ran = ref [] in
  let role label =
    {
      Program.role_name = "r";
      resource = Program.Sm_partition 1;
      lane = Tilelink_sim.Trace.Compute_sm;
      tasks =
        [
          {
            Program.label;
            instrs =
              [
                Instr.Compute
                  {
                    label;
                    cost = Instr.Fixed_cost 10.0;
                    reads = [];
                    writes = [];
                    action = Some (fun _ ~rank:_ -> ran := label :: !ran);
                  };
              ];
          };
        ];
    }
  in
  let program =
    Program.create ~name:"twins" ~world_size:1 ~pc_channels:1
      ~peer_channels:1
      [| [ role "first"; role "second" ] |]
  in
  let ran_by execute =
    ran := [];
    execute ();
    List.sort compare !ran
  in
  Alcotest.(check (list string)) "interpreter runs each role's task once"
    [ "first"; "second" ]
    (ran_by (fun () ->
         ignore
           (Runtime.run ~data:true
              (Cluster.create Calib.test_machine ~world_size:1)
              program)));
  Alcotest.(check (list string)) "domain backend runs each role's task once"
    [ "first"; "second" ]
    (ran_by (fun () -> ignore (Parallel.run ~domains:1 program)))

let test_pipelining_hides_load_latency () =
  (* On a machine with load latency, stages=3 must beat stages=1 for a
     serial chain of (load, compute) pairs. *)
  let machine =
    let base = Calib.test_machine in
    { base with Spec.gpu = { base.Spec.gpu with Spec.load_latency = 5.0 } }
  in
  let chain =
    List.concat
      (List.init 6 (fun i ->
           [
             Instr.Load
               { access = Instr.access ~buffer:"a" ~row:(i, i + 1) ~col:(0, 1) () };
             Instr.Compute
               {
                 label = Printf.sprintf "c%d" i;
                 cost = Instr.Fixed_cost 10.0;
                 reads =
                   [ Instr.access ~buffer:"a" ~row:(i, i + 1) ~col:(0, 1) () ];
                 writes = [];
                 action = None;
               };
           ]))
  in
  let program instrs =
    Program.create ~name:"pipe" ~world_size:1 ~pc_channels:1 ~peer_channels:1
      [|
        [
          {
            Program.role_name = "c";
            resource = Program.Sm_partition 1;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = [ { Program.label = "chain"; instrs } ];
          };
        ];
      |]
  in
  let time instrs =
    let cluster = Cluster.create machine ~world_size:1 in
    (Runtime.run cluster (program instrs)).Runtime.makespan
  in
  let serial = time chain in
  let pipelined = time (Pipeline.hoist_loads ~stages:3 chain) in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined (%.0f) < serial (%.0f)" pipelined serial)
    true
    (pipelined < serial);
  (* Serial pays ~5us stall per compute; pipelined hides all but the
     first. *)
  Alcotest.(check bool) "hides most stalls" true (serial -. pipelined > 20.0)

(* Interpreter corners: tiny one-rank programs whose event counts are
   worked out by hand, so a rewrite of the interpreter cannot drop or
   add an event on an edge path without a test noticing. *)
let one_role_program ~resource tasks =
  Program.create ~name:"corner" ~world_size:1 ~pc_channels:1 ~peer_channels:1
    [|
      [
        {
          Program.role_name = "r";
          resource;
          lane = Tilelink_sim.Trace.Compute_sm;
          tasks =
            List.mapi
              (fun i instrs -> { Program.label = Printf.sprintf "t%d" i; instrs })
              tasks;
        };
      ];
    |]

let fixed_compute cost =
  Instr.Compute
    { label = "c"; cost = Instr.Fixed_cost cost; reads = []; writes = [];
      action = None }

(* Makespan, executed events and blocked process-time of one run. *)
let run_counts program =
  let cluster = Cluster.create Calib.test_machine ~world_size:1 in
  let r = Runtime.run cluster program in
  let engine = Cluster.engine cluster in
  ( r.Runtime.makespan,
    Tilelink_sim.Engine.executed_events engine,
    Tilelink_sim.Engine.blocked_time engine )

let check_counts msg (makespan, events, blocked) program =
  let m, e, b = run_counts program in
  check_float (msg ^ ": makespan") makespan m;
  Alcotest.(check int) (msg ^ ": events") events e;
  check_float (msg ^ ": blocked time") blocked b

let test_empty_body_queues_for_pool () =
  (* The test machine has one DMA channel.  Worker 1 holds it for a
     10us tile from t=2 (after the launch); worker 2's task is a lone
     leading Sleep, so its body is empty, yet it still queues for the
     unit at t=3 and takes it at t=12.  Events: role start, launch,
     two worker starts, the sleep, the compute, worker 2's grant and
     the role's resume = 8.  Blocked: the role 2..12, worker 2 3..12. *)
  check_counts "empty body" (12.0, 8, 19.0)
    (one_role_program ~resource:(Program.Dma_engines 2)
       [ [ fixed_compute 10.0 ]; [ Instr.Sleep 1.0 ] ])

let test_zero_sleep_costs_an_event () =
  (* A host stream runs inline in its role: role start and launch are
     the only events of an empty task.  [Sleep 0.0] adds one event, a
     zero-duration compute none. *)
  let host tasks = one_role_program ~resource:Program.Host_stream tasks in
  check_counts "empty task" (2.0, 2, 0.0) (host [ [] ]);
  check_counts "sleep 0" (2.0, 3, 0.0) (host [ [ Instr.Sleep 0.0 ] ]);
  check_counts "compute 0" (2.0, 2, 0.0) (host [ [ fixed_compute 0.0 ] ])

let test_unsignalled_wait_deadlocks () =
  (* The role is parked on its worker, the worker on pc[0][0]. *)
  let program =
    one_role_program ~resource:(Program.Sm_partition 1)
      [
        [
          Instr.Wait
            { target = Instr.Pc { rank = 0; channel = 0 }; threshold = 1;
              guards = [] };
        ];
      ]
  in
  let cluster = Cluster.create Calib.test_machine ~world_size:1 in
  match Runtime.run cluster program with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Tilelink_sim.Engine.Deadlock msg ->
    Alcotest.(check string) "message"
      "simulation deadlock: 2 process(es) still blocked at t=2.000\n\
       pending waiters (1):\n\
      \  rank 0 waits pc[0][0] >= 1 (since t=2.0)"
      msg

(* MLP-1 AG+GEMM (8192x4096x2752 per rank pair, world 8) on the paper
   machine, first tuned candidate. *)
let mlp1_world = 8

let mlp1_ag_gemm_config =
  List.hd (Tilelink_workloads.Tuned.ag_gemm_candidates ~world_size:mlp1_world)

let mlp1_ag_gemm () =
  Tilelink_workloads.Mlp.ag_gemm_program ~config:mlp1_ag_gemm_config
    { Tilelink_workloads.Mlp.m = 8192; k = 4096; n = 2 * 11008 / mlp1_world;
      world_size = mlp1_world }
    ~spec_gpu:Calib.h800

(* Guard against per-event allocation creeping back into the
   interpreter: one MLP-1 AG+GEMM, timing only. *)
let test_runtime_allocation_per_event () =
  let world = mlp1_world in
  let program = mlp1_ag_gemm () in
  let cluster = Cluster.create Calib.h800 ~world_size:world in
  let before = Gc.minor_words () in
  ignore (Runtime.run cluster program);
  let words = Gc.minor_words () -. before in
  let events = Tilelink_sim.Engine.executed_events (Cluster.engine cluster) in
  let per_event = words /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per event over %d events (bound 35)"
       per_event events)
    true (per_event <= 35.0)

(* A step with fewer tasks than SM workers: attention with one head,
   64 KV rows and 8-row q/kv tiles at world 8 on H800 runs one query
   tile per rank, so 131 of each rank's 132 SM workers never take a
   task. *)
let small_attention () =
  Tilelink_workloads.Attention.program
    ~config:{ Tilelink_workloads.Attention.q_tile = 8; kv_tile = 8 }
    { Tilelink_workloads.Attention.batch_heads = 1; seq = 64; head_dim = 64;
      world_size = 8; causal = false }
    ~spec_gpu:Calib.h800

(* Idle workers are invisible in the schedule: the makespan, the event
   count and every span's worker id are those of the interpreter that
   ran each idle worker as a cursor.  The host streams take worker ids
   0-7; rank r's one busy SM worker takes 8 + 132 r, because each idle
   worker still takes an id. *)
let test_idle_workers_pinned () =
  let program = small_attention () in
  let cluster = Cluster.create Calib.h800 ~world_size:8 in
  let result = Runtime.run cluster program in
  Alcotest.(check string) "makespan" "0x1.d6eb950461708p+5"
    (Printf.sprintf "%h" result.Runtime.makespan);
  Alcotest.(check int) "events" 1664
    (Tilelink_sim.Engine.executed_events (Cluster.engine cluster));
  let telemetry = Tilelink_obs.Telemetry.spans_only () in
  ignore
    (Runtime.run ~telemetry (Cluster.create Calib.h800 ~world_size:8) program);
  let workers =
    List.map
      (fun s -> s.Tilelink_obs.Span.worker)
      (Tilelink_obs.Span.spans (Tilelink_obs.Telemetry.spans telemetry))
  in
  Alcotest.(check int) "spans" 328 (List.length workers);
  Alcotest.(check (list int)) "span workers"
    [ -1; 0; 1; 2; 3; 4; 5; 6; 7; 8; 140; 272; 404; 536; 668; 800; 932 ]
    (List.sort_uniq compare workers);
  Alcotest.(check string) "span worker sequence"
    "e0fe9d54f08fd49779106fbb31e057a4"
    (Digest.to_hex
       (Digest.string (String.concat "," (List.map string_of_int workers))))

(* Guard against set-up cost that does not scale with the work: the
   small attention step above allocates ~17k minor words per run.  It
   allocated ~93k when every idle worker had a cursor, the event queue
   grew by doubling and every channel rendered its key up front. *)
let test_small_run_allocation () =
  let program = small_attention () in
  let cluster = Cluster.create Calib.h800 ~world_size:8 in
  let before = Gc.minor_words () in
  ignore (Runtime.run cluster program);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per run (bound 40000)" words)
    true (words <= 40_000.0)

(* Guard against operand copies creeping back into the data path: one
   GEMM + ring ReduceScatter with real tensors (m 512, k 256, n 1024,
   world 4, H800) in the ring config of the execute benchmark.  Its
   tiles are far above the minor heap's size limit, so every copied
   tile is a major-heap allocation.  The run allocates ~137k major
   words, nearly all the GEMM kernel's packed B strips; it allocated
   ~17.5M when each ring stage and copy moved its tile through
   temporary tensors. *)
let test_data_path_major_allocation () =
  let world = 4 in
  let rs = { Tilelink_workloads.Mlp.rs_m = 512; rs_k = 256; rs_n = 1024;
             rs_world = world } in
  let config =
    {
      Design_space.comm_tile = (128, 512);
      compute_tile = (128, 128);
      comm_order = Tile.Row_major;
      compute_order = Tile.Ring_prev_first { segments = world };
      binding = Design_space.Comm_on_sm 20;
      stages = 2;
      micro_block = 0;
    }
  in
  let memory = Tilelink_workloads.Mlp.gemm_rs_alloc rs ~seed:7 in
  let program =
    Tilelink_workloads.Mlp.gemm_rs_program ~config rs ~spec_gpu:Calib.h800
  in
  let cluster = Cluster.create Calib.h800 ~world_size:world in
  let _, _, before = Gc.counters () in
  ignore (Runtime.run ~data:true ~memory cluster program);
  let _, _, after = Gc.counters () in
  let words = after -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words (bound 1e6)" words)
    true (words <= 1e6)

(* A rank's compute tasks are its instances of the shared templates:
   every instruction but the waits (the only ones naming the executing
   rank) is rank 0's record itself. *)
let test_ranks_share_template_instructions () =
  let program = mlp1_ag_gemm () in
  let gemm rank =
    (List.find
       (fun role -> role.Program.role_name = "gemm")
       (Program.plans program).(rank))
      .Program.tasks
  in
  let rank0 = Hashtbl.create 1024 in
  List.iter (fun t -> Hashtbl.replace rank0 t.Program.label t) (gemm 0);
  let shared = ref 0 and waits = ref 0 in
  List.iter
    (fun (t3 : Program.task) ->
      let t0 = Hashtbl.find rank0 t3.Program.label in
      List.iter2
        (fun i3 i0 ->
          match (i3, i0) with
          | Instr.Wait { target = Instr.Pc { rank = 3; _ }; _ },
            Instr.Wait { target = Instr.Pc { rank = 0; _ }; _ } ->
            incr waits
          | Instr.Wait _, _ -> Alcotest.failf "unexpected wait in %s" t3.label
          | _ ->
            if i3 != i0 then
              Alcotest.failf "%s: %s is not shared" t3.label
                (Instr.to_string i3);
            incr shared)
        t3.Program.instrs t0.Program.instrs)
    (gemm 3);
  Alcotest.(check bool)
    (Printf.sprintf "%d shared, %d waits" !shared !waits)
    true (!shared > 0 && !waits > 0)

(* Guard against per-rank lowering creeping back into the builders:
   building MLP-1 AG+GEMM allocates at most 20 minor words per
   instruction of the program (31.3 when every rank lowered every
   tile). *)
let test_build_allocation_per_instr () =
  let before = Gc.minor_words () in
  let program = mlp1_ag_gemm () in
  let words = Gc.minor_words () -. before in
  let instrs = Program.instr_count program in
  let per_instr = words /. float_of_int instrs in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per instruction over %d (bound 20)"
       per_instr instrs)
    true (per_instr <= 20.0)

(* Guard against per-instruction allocation creeping back into the
   protocol analyzer, which checks every tuner and planner candidate
   and every failover remap: analyzing MLP-1 GEMM+RS (first Tuned
   candidate, 109,056 instructions) allocates at most 4 minor words per
   instruction (0.4 when it walks the tasks' own lists; 30.4 when it
   copied every task into an array and kept per-signal endpoint
   lists). *)
let test_analyzer_allocation_per_instr () =
  let program =
    Tilelink_workloads.Mlp.gemm_rs_program
      ~config:
        (List.hd
           (Tilelink_workloads.Tuned.gemm_rs_candidates ~world_size:mlp1_world))
      { Tilelink_workloads.Mlp.rs_m = 8192; rs_k = 11008 / mlp1_world;
        rs_n = 4096; rs_world = mlp1_world }
      ~spec_gpu:Calib.h800
  in
  let before = Gc.minor_words () in
  let report = Analyzer.analyze program in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "clean" true (Analyzer.ok report);
  let instrs = Program.instr_count program in
  let per_instr = words /. float_of_int instrs in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per instruction over %d (bound 4)"
       per_instr instrs)
    true (per_instr <= 4.0)

(* ------------------------------------------------------------------ *)
(* Design space + tuner                                                *)
(* ------------------------------------------------------------------ *)

let test_design_space_enumeration () =
  let space = Design_space.default_space ~world_size:8 in
  let configs = Design_space.enumerate space in
  Alcotest.(check int) "full cross product"
    (3 * 3 * 2 * 2 * 3 * 2)
    (List.length configs)

let test_coupled_config () =
  let c =
    Design_space.coupled ~tile:(128, 128) ~order:Tile.Row_major ~comm_sms:20
      ~stages:2
  in
  Alcotest.(check bool) "tiles equal" true (c.Design_space.comm_tile = c.Design_space.compute_tile)

let test_tuner_picks_fastest () =
  let configs =
    List.map
      (fun stages ->
        {
          Design_space.comm_tile = (4, 4);
          compute_tile = (4, 4);
          comm_order = Tile.Row_major;
          compute_order = Tile.Row_major;
          binding = Design_space.Comm_on_sm 1;
          stages;
          micro_block = 0;
        })
      [ 1; 2; 3 ]
  in
  (* Synthetic evaluator: pretend deeper pipelines are faster. *)
  let outcome =
    Tune.search
      ~build:(fun c -> c)
      ~evaluate:(fun c -> 10.0 /. float_of_int c.Design_space.stages)
      configs
  in
  match outcome with
  | None -> Alcotest.fail "no outcome"
  | Some o ->
    Alcotest.(check int) "best is stages=3" 3
      o.Tune.best.Tune.config.Design_space.stages;
    Alcotest.(check int) "all evaluated" 3 (List.length o.Tune.evaluated)

let test_tuner_skips_failures () =
  let configs =
    List.map
      (fun stages ->
        {
          Design_space.comm_tile = (4, 4);
          compute_tile = (4, 4);
          comm_order = Tile.Row_major;
          compute_order = Tile.Row_major;
          binding = Design_space.Comm_on_sm 1;
          stages;
          micro_block = 0;
        })
      [ 1; 2 ]
  in
  let outcome =
    Tune.search
      ~build:(fun c ->
        if c.Design_space.stages = 1 then invalid_arg "bad config" else c)
      ~evaluate:(fun _ -> 1.0)
      configs
  in
  match outcome with
  | None -> Alcotest.fail "no outcome"
  | Some o ->
    Alcotest.(check int) "skipped one" 1 o.Tune.skipped;
    Alcotest.(check int) "skipped at build" 1 o.Tune.skipped_build;
    Alcotest.(check int) "evaluated one" 1 (List.length o.Tune.evaluated)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "tile",
        [
          Alcotest.test_case "grid" `Quick test_tile_grid;
          Alcotest.test_case "orders" `Quick test_tile_orders;
          Alcotest.test_case "orders cover grid" `Quick
            test_tile_order_covers_grid;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "paper formulas" `Quick
            test_static_mapping_paper_formulas;
          Alcotest.test_case "multi-tile channels" `Quick
            test_static_mapping_multi_tile_channels;
          Alcotest.test_case "ranks for range" `Quick
            test_static_mapping_ranks_for_range;
          Alcotest.test_case "src shard" `Quick test_static_mapping_src_shard;
          Alcotest.test_case "rejects bad config" `Quick
            test_static_mapping_rejects_bad_config;
          Alcotest.test_case "dynamic" `Quick test_dynamic_mapping;
          qc prop_static_mapping_consistent;
          qc prop_channels_for_rows_matches_per_row_fold;
        ] );
      ( "channel",
        [
          Alcotest.test_case "pc roundtrip" `Quick test_channel_pc_roundtrip;
          Alcotest.test_case "peer direction" `Quick
            test_channel_peer_isolated_by_direction;
          Alcotest.test_case "host" `Quick test_channel_host;
          Alcotest.test_case "bounds" `Quick test_channel_bounds;
          Alcotest.test_case "total notifies" `Quick
            test_channel_total_notifies;
          Alcotest.test_case "untouched peer keys" `Quick
            test_channel_untouched_peer_keys;
          Alcotest.test_case "find_key contract" `Quick
            test_channel_find_key_contract;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc/find" `Quick test_memory_alloc_find;
          Alcotest.test_case "duplicate rejected" `Quick
            test_memory_duplicate_alloc_rejected;
          Alcotest.test_case "missing buffer" `Quick
            test_memory_missing_buffer;
          Alcotest.test_case "symmetric" `Quick test_memory_symmetric;
        ] );
      ( "instr",
        [
          Alcotest.test_case "overlap rules" `Quick test_access_overlap_rules;
          qc prop_access_overlap_symmetric;
        ] );
      ( "program",
        [ Alcotest.test_case "counts" `Quick test_program_counts ] );
      ( "lower",
        [
          Alcotest.test_case "notify p2p" `Quick
            test_lower_producer_notify_p2p;
          Alcotest.test_case "notify broadcast" `Quick
            test_lower_producer_notify_broadcast;
          Alcotest.test_case "notify owner" `Quick
            test_lower_producer_notify_owner;
          Alcotest.test_case "consumer wait" `Quick test_lower_consumer_wait;
          Alcotest.test_case "pull shard rows" `Quick
            test_lower_pull_translates_shard_rows;
          Alcotest.test_case "template equals per-rank lowering" `Quick
            test_template_equals_per_rank_lowering;
          Alcotest.test_case "ranks share template instructions" `Quick
            test_ranks_share_template_instructions;
          Alcotest.test_case "build allocation per instruction" `Quick
            test_build_allocation_per_instr;
          Alcotest.test_case "analyzer allocation per instruction" `Quick
            test_analyzer_allocation_per_instr;
        ] );
      ( "pipeline+consistency",
        [
          Alcotest.test_case "correct stream accepted" `Quick
            test_consistency_accepts_correct_stream;
          Alcotest.test_case "safe pipeline ok" `Quick
            test_safe_pipeline_keeps_consistency;
          Alcotest.test_case "unsafe pipeline caught" `Quick
            test_unsafe_pipeline_caught;
          Alcotest.test_case "independent load hoisted" `Quick
            test_pipeline_hoists_independent_load;
          Alcotest.test_case "release violation" `Quick
            test_notify_release_violation_detected;
          qc prop_pipeline_preserves_multiset;
          qc prop_fence_scan_matches_reference;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "ag+gemm end to end" `Quick
            test_ag_gemm_end_to_end;
          Alcotest.test_case "missing notify deadlocks" `Quick
            test_ag_gemm_missing_notify_deadlocks;
          Alcotest.test_case "missing wait corrupts" `Quick
            test_ag_gemm_missing_wait_corrupts;
          Alcotest.test_case "overlap positive" `Quick
            test_ag_gemm_overlap_beats_serial;
          Alcotest.test_case "validate bad channel" `Quick
            test_program_validate_catches_bad_channel;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "dropped notify deadlocks" `Quick
            test_fault_dropped_notify_deadlocks;
          Alcotest.test_case "weakened waits corrupt" `Quick
            test_fault_weakened_waits_corrupt;
          Alcotest.test_case "delay only slows" `Quick
            test_fault_delay_only_slows;
        ] );
      ( "stream properties",
        [
          qc prop_pipeline_preserves_consistency;
          qc prop_unsafe_pipeline_never_beats_verifier;
          qc prop_runtime_deterministic;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "fence discipline" `Quick
            test_codegen_fence_discipline;
          Alcotest.test_case "acquire before mma" `Quick
            test_codegen_acquire_precedes_mma;
          Alcotest.test_case "remote copies" `Quick
            test_codegen_remote_copies;
          Alcotest.test_case "tir target" `Quick test_codegen_tir_target;
          Alcotest.test_case "rank out of range" `Quick
            test_codegen_rank_out_of_range;
        ] );
      ( "runtime scheduling",
        [
          Alcotest.test_case "wave quantization" `Quick
            test_runtime_wave_quantization;
          Alcotest.test_case "single wave" `Quick test_runtime_single_wave;
          Alcotest.test_case "dynamic SM sharing" `Quick
            test_runtime_roles_share_sms_dynamically;
          Alcotest.test_case "pipelining hides load latency" `Quick
            test_pipelining_hides_load_latency;
          Alcotest.test_case "empty body queues for the pool" `Quick
            test_empty_body_queues_for_pool;
          Alcotest.test_case "sleep 0 costs an event" `Quick
            test_zero_sleep_costs_an_event;
          Alcotest.test_case "unsignalled wait deadlocks" `Quick
            test_unsignalled_wait_deadlocks;
          Alcotest.test_case "allocation per event" `Quick
            test_runtime_allocation_per_event;
          Alcotest.test_case "data path major allocation" `Quick
            test_data_path_major_allocation;
          Alcotest.test_case "roles sharing a name each run" `Quick
            test_runtime_same_name_roles;
          Alcotest.test_case "idle workers pinned" `Quick
            test_idle_workers_pinned;
          Alcotest.test_case "small run allocation" `Quick
            test_small_run_allocation;
        ] );
      ( "design space",
        [
          Alcotest.test_case "enumeration" `Quick
            test_design_space_enumeration;
          Alcotest.test_case "coupled" `Quick test_coupled_config;
          Alcotest.test_case "tuner picks fastest" `Quick
            test_tuner_picks_fastest;
          Alcotest.test_case "tuner skips failures" `Quick
            test_tuner_skips_failures;
        ] );
    ]
