(** Fault injection: broken or skewed variants of real programs, for
    testing that lost signals deadlock (and are detected) and pure
    delays never change results.

    Premature waits are *not* detected by the runtime itself — the
    interpreter happily reads whatever bytes are in the destination
    buffer.  They are caught by the data-validation path: tests run the
    faulted program with [Runtime.run ~data:true] on a machine whose
    links are slow enough that un-awaited tiles have not landed, then
    compare the outputs against the workload's reference; the mismatch
    is the detection. *)

val drop_notify : Program.t -> rank:int -> nth:int -> Program.t
(** Remove the [nth] Notify instruction (0-based, task order) on
    [rank]: a lost signal. *)

val weaken_waits : Program.t -> rank:int -> delta:int -> Program.t
(** Lower every Wait threshold on [rank] by [delta] (floored at 0):
    consumers stop waiting for the last [delta] signals. *)

val delay_role : Program.t -> rank:int -> role_name:string -> us:float -> Program.t
(** Prepend a fixed delay to every task of one role: timing skew that
    must not affect results. *)

val duplicate_notify : Program.t -> rank:int -> nth:int -> Program.t
(** Emit the [nth] Notify (0-based, task order) on [rank] twice: a
    retransmission.  Waits are [>=] on monotonic counters, so a correct
    program must produce identical data. *)

val reorder_notifies : Program.t -> rank:int -> nth:int -> Program.t
(** Swap the payloads of the [nth] and [nth+1] Notify on [rank],
    keeping their program positions: a reordered delivery that can
    release a consumer before its tile was produced.  Raises
    [Invalid_argument] if fewer than [nth + 2] notifies exist. *)

val swap_notify_rank : Program.t -> rank:int -> nth:int -> Program.t
(** Retarget the [nth] Notify (0-based, task order) on [rank] to the
    next rank's counter — a wrong f_R resolution: the intended consumer
    never hears the signal, a bystander key is signalled for nothing. *)

val bump_wait_threshold : Program.t -> rank:int -> nth:int -> Program.t
(** Raise the [nth] Wait threshold on [rank] by one: an off-by-one
    epoch no producer will ever satisfy. *)

val bump_notify_amount : Program.t -> rank:int -> nth:int -> Program.t
(** Raise the [nth] Notify amount on [rank] by one: the key advances
    one epoch beyond what the protocol registered waiters for. *)

val remap_program : Program.t -> dead:int -> survivors:int list -> Program.t
(** Rewrite every [Pc] target owned by [dead] onto the survivors with
    {!Mapping.remap_channels} — the reroute {!Mapping.remap_rank}
    applies — and grow [pc_channels] to the remapped stride.  Live
    targets, peer and host channels are unchanged, and every target,
    instruction and task the remap leaves unchanged is the original
    value itself (physically equal).  This is the
    protocol the analyzer re-validates against {!Mapping.remap_rank}'s
    mapping before a failover replay.  Raises like
    {!Mapping.remap_channels}. *)

val count_notifies : Program.t -> rank:int -> int
