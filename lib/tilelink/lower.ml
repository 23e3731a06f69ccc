(* Backend lowering: frontend primitives -> device instructions.

   The tile-centric mapping resolves tile ids into shape ranges, ranks
   and channels (§4.1); notify primitives lower to release [Notify]
   instructions, wait primitives to acquire [Wait] instructions whose
   [guards] carry the protected buffer ranges, and data primitives to
   [Copy] instructions with concrete source/destination ranks. *)

(* Copy labels name the peer rank ("push->r3", "pull<-r5").  They are
   rendered once per lowering context, indexed by rank, so a program's
   copies share their label strings instead of formatting one each. *)
type copy_labels = { push_to : string array; pull_from : string array }

let copy_labels ~world_size =
  let render prefix =
    Array.init world_size (fun r -> prefix ^ string_of_int r)
  in
  { push_to = render "push->r"; pull_from = render "pull<-r" }

(* The executing rank of a template (Block_channel.instantiate). *)
let self = min_int

type config = {
  mapping : Mapping.t;
  rank : int;        (* the executing rank, or [self] in a template *)
  world_size : int;
  labels : copy_labels;
}

let copy_label table prefix rank =
  if rank >= 0 && rank < Array.length table then table.(rank)
  else prefix ^ string_of_int rank

let dtype_bytes = Tilelink_machine.Cost.dtype_bytes

let bytes_of_access (a : Instr.access) =
  let rows = snd a.row - fst a.row and cols = snd a.col - fst a.col in
  float_of_int rows *. float_of_int cols *. dtype_bytes

let lower_stmt config (stmt : Primitive.t) : Instr.t list =
  let mapping = config.mapping in
  match stmt with
  | Primitive.Load access -> [ Instr.Load { access } ]
  | Primitive.Store access -> [ Instr.Store { access } ]
  | Primitive.Compute { label; cost; reads; writes; action } ->
    [ Instr.Compute { label; cost; reads; writes; action } ]
  | Primitive.Sleep d -> [ Instr.Sleep d ]
  | Primitive.Producer_tile_notify { tid; mode } ->
    let channel = Mapping.channel_of mapping ~tid in
    let lo, hi = Mapping.shape_range mapping ~tid in
    let releases =
      [ Instr.access ~buffer:"*" ~row:(lo, hi) ~col:(0, max_int) () ]
    in
    let notify rank =
      Instr.Notify { target = Instr.Pc { rank; channel }; amount = 1; releases }
    in
    (match mode with
    | Primitive.P2p -> [ notify config.rank ]
    | Primitive.Owner ->
      let owner, _local = Mapping.split_channel mapping channel in
      [ notify owner ]
    | Primitive.To_rank rank -> [ notify rank ]
    | Primitive.Broadcast ->
      List.init config.world_size (fun rank -> notify rank))
  | Primitive.Consumer_tile_wait { lo; hi; buffer; col } ->
    let guards = [ Instr.access ~buffer ~row:(lo, hi) ~col () ] in
    Mapping.channels_for_range mapping ~lo ~hi
    |> List.map (fun (channel, threshold) ->
           Instr.Wait
             {
               target = Instr.Pc { rank = config.rank; channel };
               threshold;
               guards;
             })
  | Primitive.Consumer_tile_wait_rows { rows; buffer; col } ->
    (* Dedupe the channels covering every scattered row; guard the full
       enclosing row range (conservative but sound). *)
    let lo = List.fold_left min max_int rows in
    let hi = List.fold_left max 0 rows + 1 in
    let guards = [ Instr.access ~buffer ~row:(lo, hi) ~col () ] in
    Mapping.channels_for_rows mapping rows
    |> List.map (fun (channel, threshold) ->
           Instr.Wait
             {
               target = Instr.Pc { rank = config.rank; channel };
               threshold;
               guards;
             })
  | Primitive.Peer_tile_notify { tile_key; dst; amount; releases } ->
    [
      Instr.Notify
        {
          target =
            Instr.Peer { src = config.rank; dst; channel = tile_key };
          amount;
          releases;
        };
    ]
  | Primitive.Peer_tile_wait { tile_key; src; threshold; guards } ->
    [
      Instr.Wait
        {
          target =
            Instr.Peer { src; dst = config.rank; channel = tile_key };
          threshold;
          guards;
        };
    ]
  | Primitive.Rank_notify { dst; amount } ->
    [
      Instr.Notify
        {
          target = Instr.Host { src = config.rank; dst };
          amount;
          releases = [];
        };
    ]
  | Primitive.Rank_wait { src; threshold } ->
    [
      Instr.Wait
        {
          target = Instr.Host { src; dst = config.rank };
          threshold;
          guards = [];
        };
    ]
  | Primitive.Tile_push_data { src; dst_rank; dst } ->
    let dst = { dst with Instr.mem_rank = Some dst_rank } in
    [
      Instr.Copy
        {
          label = copy_label config.labels.push_to "push->r" dst_rank;
          src;
          dst;
          bytes = bytes_of_access src;
          action = None;
        };
    ]
  | Primitive.Tile_pull_data { tid; src_buffer; src_view; col; dst; action }
    ->
    let src_rank = Mapping.rank_of mapping ~tid in
    let row =
      match src_view with
      | `Global -> Mapping.shape_range mapping ~tid
      | `Shard -> Mapping.src_shard_range mapping ~tid
    in
    let src =
      Instr.access ~rank:src_rank ~buffer:src_buffer ~row ~col ()
    in
    [
      Instr.Copy
        {
          label = copy_label config.labels.pull_from "pull<-r" src_rank;
          src;
          dst;
          bytes = bytes_of_access src;
          action;
        };
    ]
  | Primitive.Rank_copy_data { src; dst; action } ->
    [
      Instr.Copy
        { label = "rank_copy"; src; dst; bytes = bytes_of_access src; action };
    ]

let lower config stmts = List.concat_map (lower_stmt config) stmts
