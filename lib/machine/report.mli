(** Overlap accounting measured directly from simulation traces:
    per-rank compute-busy, comm-busy and their intersection. *)

type rank_report = {
  rank : int;
  compute_busy : float;
  comm_busy : float;
  overlapped : float;
  wait_time : float;
  makespan : float;
}

val is_comm_lane : Tilelink_sim.Trace.lane -> bool
(** Communication lanes: SM communication workers, copy engines and
    host streams. *)

val merge_intervals : (float * float) list -> (float * float) list
val intersect :
  (float * float) list -> (float * float) list -> (float * float) list

val rank_report : Tilelink_sim.Trace.t -> rank:int -> rank_report

val overlap_ratio : rank_report -> float
(** Fraction of communication time hidden behind compute. *)

val all_ranks : Tilelink_sim.Trace.t -> world_size:int -> rank_report list
val pp : Format.formatter -> rank_report -> unit
