(** Device-code emission: renders lowered instruction streams to an
    NVSHMEM-flavored pseudo-PTX listing (the Distributed-IR -> PTX
    stage of the paper's Figure 7).  Inspectable and testable; the
    simulator interprets the same instructions. *)

type target = Ptx | Tir
    (** [Ptx]: NVSHMEM-flavored pseudo-PTX.  [Tir]: TVM-TIR-flavored
        pseudocode — the "support multiple backends" future-work
        direction (§7.4); same instruction stream, different backend
        syntax. *)

val emit_task : ?target:target -> Program.task -> string
val emit_role : ?target:target -> Program.role -> string
val emit_rank : Program.t -> rank:int -> string

type stats = {
  acquires : int;     (** [ld.global.acquire] spin loops *)
  releases : int;     (** [red.release] signal stores *)
  async_loads : int;  (** [cp.async] staging copies *)
  remote_puts : int;  (** [nvshmem_putmem_nbi] *)
  remote_gets : int;  (** [nvshmem_getmem_nbi] *)
}

val stats_of_listing : string -> stats
