(** Whole-program protocol analyzer (static race/deadlock detection).

    [Consistency] checks one task's linear stream; this pass looks at
    the entire lowered program.  It resolves every notify/wait pair
    through the channel key space the runtime uses (so diagnostics name
    the same [pc[r][c]] / [peer[d<-s][c]] / [host[d<-s]] keys as
    runtime deadlocks and chaos stalls), and reports:

    - {b unmatched waits}: a wait whose threshold exceeds everything
      producers will ever signal on its key;
    - {b unconsumed notifies}: a key that is signalled but never
      awaited (usually a wrong f_R/f_C resolution on one side);
    - {b epoch reuse}: a key re-signalled past the highest registered
      waiter threshold — a new epoch begins while the registered
      waiter set only covers earlier epochs;
    - {b deadlock cycles}: circular wait-for dependencies between task
      streams across ranks, found by running the signal protocol to a
      fixpoint under maximally-parallel task scheduling (sound for the
      runtime's monotonic [>=] counters: anything stuck in this model
      is stuck under every worker schedule);
    - {b data races}: reads ordered before their acquire wait or
      writes after their release notify ([Consistency] violations),
      resolved to the producing rank and channel — the
      [Pipeline.hoist_loads_unsafe] class of miscompile. *)

type severity = Error | Warning

(** One edge of a circular wait: [waiter] is blocked on [key] whose
    outstanding signal must come from [producer_rank]'s stream named by
    the next edge in the cycle. *)
type edge = {
  e_rank : int;  (** waiting rank *)
  e_role : string;
  e_task : string;
  e_key : string;
  e_threshold : int;
  e_producer_rank : int;
}

type kind =
  | Unmatched_wait of { threshold : int; available : int }
      (** [available] is the key's total signal supply. *)
  | Unconsumed_notify of { amount : int }
      (** Total amount signalled on a key nobody waits on. *)
  | Epoch_reuse of { available : int; max_threshold : int; waiters : int }
      (** Supply exceeds the highest registered waiter threshold. *)
  | Deadlock_cycle of { cycle : edge list }
  | Data_race of {
      race : Consistency.fence_kind;
      position : int;        (** misordered access, task-stream index *)
      fence_position : int;
      access : string;       (** rendered offending instruction *)
    }
  | Mapping_mismatch of { expected : int; actual : int }
      (** Program protocol disagrees with an explicit [Mapping.t]. *)

type diag = {
  severity : severity;
  kind : kind;
  key : string;       (** runtime counter key ([Chaos.parse_key] format) *)
  rank : int;         (** rank where the problem manifests *)
  channel : int option;
  producer : int;     (** producing rank of the key *)
  role : string;
  task : string;
  detail : string;    (** one-line human rendering *)
}

type report = {
  program : string;
  world_size : int;
  diags : diag list;  (** stable order: matching, deadlock, races *)
  keys : int;         (** distinct signal keys referenced *)
  notifies : int;
  waits : int;
}

val analyze : Program.t -> report

val errors : report -> diag list
(** Only the [Error]-severity diagnostics. *)

val ok : report -> bool
(** No [Error]-severity diagnostics ([Warning]s allowed). *)

val check : Program.t -> (unit, diag list) result
(** [Error (errors (analyze p))] when any error exists. *)

exception Protocol_violation of diag list

val check_exn : Program.t -> unit
(** Raises {!Protocol_violation} when {!check} fails. *)

val check_message : Program.t -> (unit, string) result
(** {!check} with the first few diagnostics rendered into a single
    line — the shape [Tune.search]'s [?analyze] hook wants. *)

val diag_to_string : diag -> string
val severity_to_string : severity -> string
val kind_name : kind -> string

val report_to_json : report -> Tilelink_obs.Json.t

val check_against_mapping : Program.t -> mapping:Mapping.t -> diag list
(** Cross-check the program's [Pc] protocol against an explicit
    mapping: wait thresholds must not exceed the mapping's registered
    producer count for the channel ([Mapping.expected]), and no local
    channel may be over-produced.  Requires the mapping's rank/channel
    layout to match the program's. *)

val mutation_corpus : seed:int -> Program.t -> (string * Program.t) list
(** Seeded protocol mutations of a clean program, each of which the
    analyzer must flag: ["dropped_notify"], ["swapped_rank"],
    ["wait_epoch_off_by_one"], ["notify_epoch_off_by_one"] (built from
    {!Fault} transforms, targets chosen so the mutation is
    statically visible) and ["unsafe_hoist"]
    ({!Pipeline.pipeline_program_unsafe}).  Mutations whose
    precondition the program cannot meet (e.g. no notify on any rank)
    are omitted. *)
