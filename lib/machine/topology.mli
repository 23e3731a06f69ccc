(** Declarative cluster topologies: NVLink islands bridged by NICs,
    heterogeneous ranks, and co-tenant background NIC traffic —
    compiled down to the rate hooks {!Cluster} already exposes, so
    [same_node] and NIC routing become topology-driven.

    All derived quantities are pure in simulation time; a seeded run
    on any topology replays byte-identically. *)

type shape =
  | Flat of int  (** one NVLink island of [n] ranks *)
  | Islands of { islands : int; per_island : int }
      (** [islands] NVLink islands bridged by per-island NICs *)

type t = {
  name : string;
  shape : shape;
  hetero : bool;  (** per-rank SM / link-speed scale factors *)
  cotenant : bool;  (** seeded background-traffic tax on shared NICs *)
}

val flat8 : t
(** One homogeneous 8-rank NVLink island — the historical default. *)

val islands2x8 : t
(** Two 8-rank islands bridged by NICs (16 ranks). *)

val hetero16 : t
(** Two 8-rank islands with a repeating 4-rank SKU mix: stragglers by
    construction (compute x1.15/x1.30, NVLink x0.75 on slow parts). *)

val cotenant2x8 : t
(** Two 8-rank islands whose NICs carry seeded co-tenant background
    traffic: a piecewise-constant rate tax in [0.45, 1.0], redrawn
    every 50 µs per island. *)

val all : t list
(** Every shipped preset, in CLI order. *)

val name : t -> string

val names : unit -> string list
(** Preset names, for usage strings. *)

val of_string : string -> (t, string) result
(** Resolve a preset by name; [Error] carries a one-line usage hint. *)

val ranks_per_island : t -> int
val num_islands : t -> int

val natural_world : t -> int
(** The world size the topology was drawn for
    ([num_islands * ranks_per_island]). *)

val describe : t -> string
(** One-line human description for logs and [--json] artifacts. *)

(** A topology compiled against a concrete world size. *)
type layout = {
  l_topology : t;
  l_world : int;
  l_num_islands : int;
  l_island_of_rank : int array;
  l_compute_scale : float array;
      (** per-rank kernel-duration multiplier, [>= 1] *)
  l_link_scale : float array;
      (** per-rank NVLink rate multiplier, [<= 1] *)
  l_nic_tax : (island:int -> now:float -> float) option;
      (** co-tenant NIC rate multiplier, pure in [now] *)
}

val layout : t -> world_size:int -> layout
(** Lay the topology out left-to-right, [ranks_per_island] ranks per
    island; a short tail island is fine. *)

val island_of : layout -> int -> int
val islands : layout -> int
