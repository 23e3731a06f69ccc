(* Tile-centric mapping (paper §4.1): f_S, f_R, f_C.

   Shape mapping (f_S) associates a tile id with a row range of the
   global tensor view; rank mapping (f_R) with the device rank owning
   that range; channel mapping (f_C) with the barrier channel guarding
   it.  Mappings are either *static* — affine functions of the tile id,
   resolved at compile time — or *dynamic* — lookup tables whose
   contents are produced at runtime (MoE routing), while the accesses
   to the tables are still compiled. *)

type static = {
  extent : int;             (* global rows (M) *)
  ranks : int;              (* R *)
  channels_per_rank : int;  (* C *)
  tile : int;               (* producer tile rows (Tm_p) *)
  rows_per_rank : int;
  rows_per_channel : int;
  expected : int array;     (* producer tiles per global channel *)
}

type dynamic = {
  f_s_low : int array;
  f_s_high : int array;
  f_r : int array;
  f_c : int array;          (* global channel ids *)
  f_src_low : int array option; (* shard-local source rows, if distinct *)
  dyn_expected : int array; (* per global channel *)
  dyn_ranks : int;
  dyn_channels_per_rank : int;
  row_channels : int list array;
      (* row -> channels of the tiles covering it; precomputed so
         consumer-side lookups are O(rows), not O(rows * tiles) *)
}

type t = Static of static | Dynamic of dynamic

let ceil_div a b = (a + b - 1) / b

let static ?(multiplicity = 1) ~extent ~ranks ~channels_per_rank ~tile () =
  if extent <= 0 || ranks <= 0 || channels_per_rank <= 0 || tile <= 0 then
    invalid_arg "Mapping.static: non-positive parameter";
  if multiplicity <= 0 then invalid_arg "Mapping.static: multiplicity";
  if extent mod ranks <> 0 then
    invalid_arg "Mapping.static: extent must divide evenly across ranks";
  let rows_per_rank = extent / ranks in
  if rows_per_rank mod channels_per_rank <> 0 then
    invalid_arg "Mapping.static: rank shard must divide across channels";
  let rows_per_channel = rows_per_rank / channels_per_rank in
  if tile > rows_per_channel then
    invalid_arg "Mapping.static: tile larger than a channel segment";
  let num_tiles = ceil_div extent tile in
  let num_channels = ranks * channels_per_rank in
  let expected = Array.make num_channels 0 in
  (* [multiplicity] producer notifies arrive per 1-D row tile — e.g. a
     2-D GEMM grid notifies its row channel once per column tile. *)
  for tid = 0 to num_tiles - 1 do
    let channel = tid * tile / rows_per_channel in
    expected.(channel) <- expected.(channel) + multiplicity
  done;
  Static
    {
      extent;
      ranks;
      channels_per_rank;
      tile;
      rows_per_rank;
      rows_per_channel;
      expected;
    }

let dynamic ~ranks ~channels_per_rank ~f_s_low ~f_s_high ~f_r ~f_c () =
  let n = Array.length f_s_low in
  if
    Array.length f_s_high <> n || Array.length f_r <> n
    || Array.length f_c <> n
  then invalid_arg "Mapping.dynamic: table lengths differ";
  let num_channels = ranks * channels_per_rank in
  let dyn_expected = Array.make num_channels 0 in
  Array.iter
    (fun c ->
      if c < 0 || c >= num_channels then
        invalid_arg "Mapping.dynamic: channel id out of range";
      dyn_expected.(c) <- dyn_expected.(c) + 1)
    f_c;
  Array.iter
    (fun r ->
      if r < 0 || r >= ranks then
        invalid_arg "Mapping.dynamic: rank id out of range")
    f_r;
  let max_row = Array.fold_left max 0 f_s_high in
  let row_channels = Array.make max_row [] in
  Array.iteri
    (fun tid c ->
      for row = f_s_low.(tid) to f_s_high.(tid) - 1 do
        row_channels.(row) <- c :: row_channels.(row)
      done)
    f_c;
  Dynamic
    {
      f_s_low;
      f_s_high;
      f_r;
      f_c;
      f_src_low = None;
      dyn_expected;
      dyn_ranks = ranks;
      dyn_channels_per_rank = channels_per_rank;
      row_channels;
    }

let num_tiles = function
  | Static s -> ceil_div s.extent s.tile
  | Dynamic d -> Array.length d.f_s_low

let num_channels = function
  | Static s -> s.ranks * s.channels_per_rank
  | Dynamic d -> d.dyn_ranks * d.dyn_channels_per_rank

let ranks = function
  | Static s -> s.ranks
  | Dynamic d -> d.dyn_ranks

let channels_per_rank = function
  | Static s -> s.channels_per_rank
  | Dynamic d -> d.dyn_channels_per_rank

let check_tid t tid =
  if tid < 0 || tid >= num_tiles t then
    invalid_arg (Printf.sprintf "Mapping: tile id %d out of range" tid)

(* f_S *)
let shape_range t ~tid =
  check_tid t tid;
  match t with
  | Static s -> (tid * s.tile, min s.extent ((tid * s.tile) + s.tile))
  | Dynamic d -> (d.f_s_low.(tid), d.f_s_high.(tid))

(* f_R *)
let rank_of t ~tid =
  check_tid t tid;
  match t with
  | Static s -> tid * s.tile / s.rows_per_rank
  | Dynamic d -> d.f_r.(tid)

(* f_C: global channel id in [0, ranks * channels_per_rank). *)
let channel_of t ~tid =
  check_tid t tid;
  match t with
  | Static s -> tid * s.tile / s.rows_per_channel
  | Dynamic d -> d.f_c.(tid)

(* Global channel -> (owning rank, local channel index). *)
let split_channel t channel =
  if channel < 0 || channel >= num_channels t then
    invalid_arg "Mapping.split_channel: out of range";
  let c = channels_per_rank t in
  (channel / c, channel mod c)

(* (owning rank, local channel index) -> global channel: the inverse of
   [split_channel], used when resolving a lowered [Pc] signal target —
   which carries rank-local coordinates — back to the mapping's channel
   space. *)
let global_channel t ~rank ~local =
  let c = channels_per_rank t in
  if rank < 0 || rank >= ranks t then
    invalid_arg "Mapping.global_channel: rank out of range";
  if local < 0 || local >= c then
    invalid_arg "Mapping.global_channel: local channel out of range";
  (rank * c) + local

(* Completion threshold of a channel: the number of producer tiles it
   guards. *)
let expected t ~channel =
  if channel < 0 || channel >= num_channels t then
    invalid_arg "Mapping.expected: out of range";
  match t with
  | Static s -> s.expected.(channel)
  | Dynamic d -> d.dyn_expected.(channel)

(* Channels a consumer must wait on to safely read rows [lo, hi) of
   the global view, with the completion threshold of each.  Static
   mappings resolve this by affine arithmetic; dynamic mappings scan
   their tables (the runtime "table lookup" of the paper). *)
let channels_for_range t ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Mapping.channels_for_range";
  if lo = hi then []
  else
    match t with
    | Static s ->
      if hi > s.extent then invalid_arg "Mapping.channels_for_range: range";
      let first = lo / s.rows_per_channel in
      let last = (hi - 1) / s.rows_per_channel in
      List.init (last - first + 1) (fun i ->
          let channel = first + i in
          (channel, s.expected.(channel)))
    | Dynamic d ->
      (* Any channel guarding a tile intersecting [lo, hi) must be
         complete; the row index makes this O(hi - lo). *)
      let needed = Hashtbl.create 8 in
      for row = lo to min hi (Array.length d.row_channels) - 1 do
        List.iter
          (fun c -> Hashtbl.replace needed c d.dyn_expected.(c))
          d.row_channels.(row)
      done;
      Hashtbl.fold (fun c e acc -> (c, e) :: acc) needed []
      |> List.sort compare

(* The channels covering any of [rows] (scattered, possibly repeated),
   with their thresholds, in channel order: the union of
   [channels_for_range ~lo:row ~hi:(row + 1)] over the rows, computed in
   one pass with a seen-array over the channel space. *)
let channels_for_rows t rows =
  let seen = Array.make (num_channels t) false in
  List.iter
    (fun row ->
      if row < 0 then invalid_arg "Mapping.channels_for_rows";
      match t with
      | Static s ->
        if row >= s.extent then invalid_arg "Mapping.channels_for_rows: range";
        seen.(row / s.rows_per_channel) <- true
      | Dynamic d ->
        if row < Array.length d.row_channels then
          List.iter (fun c -> seen.(c) <- true) d.row_channels.(row))
    rows;
  let acc = ref [] in
  for c = Array.length seen - 1 downto 0 do
    if seen.(c) then acc := (c, expected t ~channel:c) :: !acc
  done;
  !acc

(* Shard-local source rows of a producer tile on its owning rank: what
   a pull-mode copy reads from the remote shard buffer. *)
let src_shard_range t ~tid =
  let lo, hi = shape_range t ~tid in
  match t with
  | Static s ->
    let r = tid * s.tile / s.rows_per_rank in
    (lo - (r * s.rows_per_rank), hi - (r * s.rows_per_rank))
  | Dynamic d -> (
    match d.f_src_low with
    | Some table -> (table.(tid), table.(tid) + (hi - lo))
    | None -> (lo, hi))

(* Ranks owning any row of [lo, hi): the pull set of a consumer tile. *)
let ranks_for_range t ~lo ~hi =
  match t with
  | Static s ->
    if lo < 0 || hi > s.extent || lo >= hi then
      invalid_arg "Mapping.ranks_for_range";
    let first = lo / s.rows_per_rank in
    let last = (hi - 1) / s.rows_per_rank in
    List.init (last - first + 1) (fun i -> first + i)
  | Dynamic d ->
    let seen = Hashtbl.create 8 in
    Array.iteri
      (fun tid r ->
        let tlo = d.f_s_low.(tid) and thi = d.f_s_high.(tid) in
        if tlo < hi && thi > lo then Hashtbl.replace seen r ())
      d.f_r;
    Hashtbl.fold (fun r () acc -> r :: acc) seen [] |> List.sort compare

(* The elastic-remap reroute after a rank crash, the one copy of the
   scheme [remap_rank] and [Fault.remap_program] both apply.

   The scheme is per-CHANNEL, not per-tile: dead rank's local channel
   [c] moves to survivor [survivors.(c mod n)] at local slot
   [cpr + c / n] — a fresh slot range so rerouted channels can never
   collide with the survivor's own channels.  Live ranks keep their
   local indices; only the channels-per-rank stride grows to
   [cpr + ceil(cpr / n)].  The survivor order is preserved (not
   sorted): a topology-aware caller lists intra-island survivors
   first. *)
let remap_channels ~ranks ~channels_per_rank:cpr ~dead ~survivors =
  if dead < 0 || dead >= ranks then
    invalid_arg "Mapping.remap_channels: dead rank out of range";
  if survivors = [] then invalid_arg "Mapping.remap_channels: no survivors";
  if
    List.length (List.sort_uniq compare survivors) <> List.length survivors
  then invalid_arg "Mapping.remap_channels: duplicate survivors";
  List.iter
    (fun s ->
      if s < 0 || s >= ranks then
        invalid_arg "Mapping.remap_channels: survivor out of range";
      if s = dead then
        invalid_arg "Mapping.remap_channels: dead rank listed as survivor")
    survivors;
  let sv = Array.of_list survivors in
  let n = Array.length sv in
  let reroute rank local =
    if rank = dead then (sv.(local mod n), cpr + (local / n))
    else (rank, local)
  in
  (cpr + ceil_div cpr n, reroute)

(* Elastic remap of a mapping: every channel the dead rank owned moves
   onto the survivors ([remap_channels]), and the result is necessarily
   dynamic.  Completion thresholds transfer unchanged (the old
   per-channel expected counts, multiplicity included, move with the
   channel), so a replayed producer satisfies exactly the same number
   of notifies the consumers were promised. *)
let remap_rank t ~dead ~survivors =
  let r = ranks t in
  let new_cpr, reroute =
    remap_channels ~ranks:r ~channels_per_rank:(channels_per_rank t) ~dead
      ~survivors
  in
  let nt = num_tiles t in
  let f_s_low = Array.init nt (fun tid -> fst (shape_range t ~tid)) in
  let f_s_high = Array.init nt (fun tid -> snd (shape_range t ~tid)) in
  let f_src_low = Array.init nt (fun tid -> fst (src_shard_range t ~tid)) in
  let f_r = Array.make nt 0 in
  let f_c = Array.make nt 0 in
  for tid = 0 to nt - 1 do
    let old_rank, old_local = split_channel t (channel_of t ~tid) in
    let nr, nl = reroute old_rank old_local in
    f_r.(tid) <- nr;
    f_c.(tid) <- (nr * new_cpr) + nl
  done;
  (* Transfer per-channel completion thresholds (not a recount from the
     tile tables: static multiplicity must survive the remap). *)
  let dyn_expected = Array.make (r * new_cpr) 0 in
  for ch = 0 to num_channels t - 1 do
    let old_rank, old_local = split_channel t ch in
    let nr, nl = reroute old_rank old_local in
    let nch = (nr * new_cpr) + nl in
    dyn_expected.(nch) <- dyn_expected.(nch) + expected t ~channel:ch
  done;
  let max_row = Array.fold_left max 0 f_s_high in
  let row_channels = Array.make max_row [] in
  Array.iteri
    (fun tid c ->
      for row = f_s_low.(tid) to f_s_high.(tid) - 1 do
        row_channels.(row) <- c :: row_channels.(row)
      done)
    f_c;
  Dynamic
    {
      f_s_low;
      f_s_high;
      f_r;
      f_c;
      f_src_low = Some f_src_low;
      dyn_expected;
      dyn_ranks = r;
      dyn_channels_per_rank = new_cpr;
      row_channels;
    }
