(** Memory-consistency verification: acquire/release ordering of
    instruction streams (catches broken compiler passes). *)

type violation = {
  position : int;
  instr : string;
  rule : string;
}

val pp_violation : Format.formatter -> violation -> unit

type fence_kind = Read_before_acquire | Write_after_release

type fence_violation = {
  fv_position : int;        (** the misordered access *)
  fv_fence_position : int;  (** the fence it crossed *)
  fv_instr : Instr.t;
  fv_fence : Instr.t;
  fv_kind : fence_kind;
}

val fence_violations : Instr.t list -> fence_violation list
(** Every acquire/release ordering violation of one task's stream, in
    scan order; [verify_task] reports the head.  The stream is walked
    in place: a stream with no guarding Wait and no releasing Notify
    costs one walk, and a clean stream allocates nothing.  The
    whole-program analyzer calls it on each task's own instruction list
    and resolves each violation's fence through the channel key space
    to name the racing producer. *)

val verify_task : Instr.t list -> (unit, violation) result
val verify_program : Program.t -> (unit, violation) result
