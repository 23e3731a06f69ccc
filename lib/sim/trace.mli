(** Timeline tracing: spans of activity per (rank, lane).

    Feeds overlap-ratio computations and ASCII timeline rendering. *)

type lane =
  | Compute_sm
  | Comm_sm
  | Dma
  | Host
  | Wait

val lane_to_string : lane -> string

type span = {
  rank : int;
  lane : lane;
  label : string;
  t0 : float;
  t1 : float;
}

type t

val create : ?enabled:bool -> unit -> t

val add :
  t -> rank:int -> lane:lane -> label:string -> t0:float -> t1:float -> unit

val spans : t -> span list

val duration : t -> float
(** Latest span end time. *)

val busy_time : ?pred:(span -> bool) -> t -> float
(** Length of the union of intervals whose span satisfies [pred]. *)

val render : t -> string
(** Coarse ASCII timeline, one row per (rank, lane), 72 columns wide. *)

val to_chrome_json : t -> string
(** Chrome tracing format (load in chrome://tracing or Perfetto):
    ranks as processes, lanes as threads. *)
