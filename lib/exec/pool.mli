(** Domain-based work pool for independent, deterministic tasks.

    Tasks self-schedule off one atomic counter and write results into
    per-index slots, so [map] returns results in input order no matter
    how many domains raced over the work — parallel sweeps produce the
    exact list the sequential path would.  Exceptions are captured per
    task and surface as [Error] in the caller's domain.

    Each simulator task must confine its mutable state (engine,
    channels, runtime) to its own domain: build a fresh
    {!Tilelink_machine.Cluster.t} inside the task, never share one
    across tasks. *)

type t

type stats = {
  tasks_run : int;  (** tasks executed across all [map] calls *)
  stolen : int;
      (** tasks that ran on a different worker than a fair static block
          partition would assign — a load-imbalance signal *)
  task_time_s : float;  (** summed per-task wall time *)
  wall_time_s : float;  (** summed per-sweep wall time *)
  runs : int;  (** [map] calls executed *)
}

val create : ?domains:int -> unit -> t
(** [domains] defaults to [Domain.recommended_domain_count ()]; fixed
    for the pool's lifetime. *)

val domains : t -> int
val stats : t -> stats

val map : t option -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map (Some pool) f xs] evaluates [f] over [xs] on the pool's
    domains; [map None f xs] is the sequential fallback with identical
    capture semantics.  Results are in input order either way. *)

val map_array : t -> (unit -> 'a) array -> ('a, exn) result array
(** Array-of-thunks form of {!map}; results land at their task index. *)

val get : ('a, exn) result -> 'a
(** Unwrap, re-raising a captured exception on the calling domain. *)
