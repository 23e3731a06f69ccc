(** Per-rank named buffer store (simulated device memories). *)

open Tilelink_tensor

type t

val create : world_size:int -> t
val world_size : t -> int
val alloc : t -> rank:int -> name:string -> Shape.t -> Tensor.t
val bind : t -> rank:int -> name:string -> Tensor.t -> unit
val find : t -> rank:int -> name:string -> Tensor.t
val buffers : t -> rank:int -> string list

val bits_equal : t -> t -> bool
(** Same world, the same buffer names on every rank, and every buffer
    {!Tilelink_tensor.Check.bits_equal}. *)
