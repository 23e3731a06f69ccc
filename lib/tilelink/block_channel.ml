(* BlockChannel (paper §6): the tile-centric mapping context.

   The real TileLink passes a special [BlockChannel] parameter into the
   Triton kernel; its embedded metadata (rank, world size, barrier
   configuration, producer/consumer block relationships) is decomposed
   during AST translation to construct the tile-centric mapping.  Here
   it is the record kernel builders thread through lowering. *)

type t = {
  config : Lower.config;  (* mapping, rank, world size, copy labels *)
  channel_base : int;  (* offset into the rank's pc channel array *)
}

let make ~channel_base ~labels ~rank ~world_size mapping =
  if rank <> Lower.self && (rank < 0 || rank >= world_size) then
    invalid_arg "Block_channel.create: rank out of range";
  if Mapping.ranks mapping <> world_size then
    invalid_arg "Block_channel.create: mapping/world size mismatch";
  { config = { Lower.mapping; rank; world_size; labels }; channel_base }

let create ?(channel_base = 0) ~rank ~world_size mapping =
  make ~channel_base ~labels:(Lower.copy_labels ~world_size) ~rank
    ~world_size mapping

(* One context per rank over a single mapping: the metadata one compiled
   kernel reads on each rank.  The copy labels are rendered once and
   shared by every rank. *)
let per_rank ?(channel_base = 0) ~world_size mapping =
  let labels = Lower.copy_labels ~world_size in
  Array.init world_size (fun rank ->
      make ~channel_base ~labels ~rank ~world_size mapping)

(* The kernel before it knows its rank: lowering in this context leaves
   [Lower.self] wherever the executing rank names a signal target. *)
let symbolic ?channel_base ~world_size mapping =
  create ?channel_base ~rank:Lower.self ~world_size mapping

let lower_config t = t.config

let shift base = function
  | Instr.Pc { rank; channel } -> Instr.Pc { rank; channel = channel + base }
  | target -> target

(* Lower a statement list in this context, applying the channel-base
   offset to every producer/consumer signal target. *)
let lower t stmts =
  let instrs = Lower.lower t.config stmts in
  if t.channel_base = 0 then instrs
  else List.map (Instr.map_target shift t.channel_base) instrs

(* A task in rank-free form.  Builders make one per tile of a program,
   lower it once in the [symbolic] context and [instantiate] it on every
   rank that runs the tile, so labels, statements, data actions and
   instructions are built once per program, not once per rank. *)
type task = { label : string; stmts : Primitive.t list }

(* Ring labels depend on the stage and tile only:
   [(stage_labels ~stages ~tiles fmt).(s).(k)] is [fmt s k], rendered
   once per program and shared by every rank. *)
let stage_labels ~stages ~tiles fmt =
  Array.init stages (fun stage -> Array.init tiles (fmt stage))

let lower_task t task =
  { Program.label = task.label; instrs = lower t task.stmts }

(* Substituting the rank returns its argument physically wherever it
   names no [Lower.self], so a rank's copy of a template allocates only
   the signal instructions that name it and the list cells before the
   last of them. *)
let self_to rank r = if r = Lower.self then rank else r

let substitute rank target =
  match target with
  | Instr.Pc { rank = r; channel } when r = Lower.self ->
    Instr.Pc { rank; channel }
  | Instr.Peer { src; dst; channel } when src = Lower.self || dst = Lower.self
    ->
    Instr.Peer { src = self_to rank src; dst = self_to rank dst; channel }
  | Instr.Host { src; dst } when src = Lower.self || dst = Lower.self ->
    Instr.Host { src = self_to rank src; dst = self_to rank dst }
  | _ -> target

let rec instantiate ~rank = function
  | [] -> []
  | instr :: rest as instrs ->
    let instr' = Instr.map_target substitute rank instr in
    let rest' = instantiate ~rank rest in
    if instr' == instr && rest' == rest then instrs else instr' :: rest'

let instantiate_task ~rank (task : Program.task) =
  let instrs = instantiate ~rank task.Program.instrs in
  if instrs == task.Program.instrs then task else { task with Program.instrs }
