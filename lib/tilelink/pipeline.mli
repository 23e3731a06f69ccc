(** Software pipelining: hoist loads for multi-stage execution without
    crossing acquire fences or true dependencies. *)

val hoist_loads : stages:int -> Instr.t list -> Instr.t list
(** Move each load up by at most [stages - 1] eligible slots,
    respecting acquire fences and write conflicts. *)

val hoist_loads_unsafe : stages:int -> Instr.t list -> Instr.t list
(** Broken variant that ignores acquire fences — exists so tests can
    demonstrate the consistency verifier catching it. *)

val pipeline_task : stages:int -> Program.task -> Program.task
val pipeline_program : stages:int -> Program.t -> Program.t

val pipeline_program_unsafe : stages:int -> Program.t -> Program.t
(** [pipeline_program] with the fence-ignoring hoist: the
    deliberately-broken whole-program miscompile used to exercise the
    protocol analyzer's happens-before check. *)
