(** Overlapped-kernel programs: lowered per-rank, per-role instruction
    streams plus the channel-space layout. *)

type resource =
  | Sm_partition of int
  | Dma_engines of int
  | Host_stream

val resource_to_string : resource -> string

type task = { label : string; instrs : Instr.t list }

type role = {
  role_name : string;
  resource : resource;
  lane : Tilelink_sim.Trace.lane;
  tasks : task list;
}

type t = {
  name : string;
  world_size : int;
  pc_channels : int;
  peer_channels : int;
  plans : role list array;
}

val create :
  name:string ->
  world_size:int ->
  pc_channels:int ->
  peer_channels:int ->
  role list array ->
  t

val name : t -> string
val world_size : t -> int
val plans : t -> role list array
val role_count : t -> int
val task_count : t -> int
val instr_count : t -> int

val iter_tasks : t -> f:(rank:int -> role -> task -> unit) -> unit
(** Visit every task rank-major, roles then tasks in plan order — the
    shared traversal of validation, the protocol analyzer and fault
    transforms. *)

val validate : t -> (unit, string) result
(** Check every signal target against the channel layout. *)

val pp : Format.formatter -> t -> unit
