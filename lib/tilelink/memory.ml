(* Per-rank named buffer store — the simulator's device memories.

   Remote buffers are addressed as (rank, name); the symmetric-memory
   style of NVSHMEM means every rank allocates the same names, but
   nothing here enforces symmetry, which lets tests build asymmetric
   layouts too. *)

open Tilelink_tensor

type t = { stores : (string, Tensor.t) Hashtbl.t array }

let create ~world_size =
  if world_size <= 0 then invalid_arg "Memory.create: world_size";
  { stores = Array.init world_size (fun _ -> Hashtbl.create 16) }

let world_size t = Array.length t.stores

let check_rank t rank label =
  if rank < 0 || rank >= world_size t then
    invalid_arg (Printf.sprintf "Memory.%s: rank %d out of range" label rank)

let alloc t ~rank ~name shape =
  check_rank t rank "alloc";
  if Hashtbl.mem t.stores.(rank) name then
    invalid_arg (Printf.sprintf "Memory.alloc: %s already exists on %d" name rank);
  let tensor = Tensor.zeros shape in
  Hashtbl.replace t.stores.(rank) name tensor;
  tensor

let bind t ~rank ~name tensor =
  check_rank t rank "bind";
  Hashtbl.replace t.stores.(rank) name tensor

let find t ~rank ~name =
  check_rank t rank "find";
  match Hashtbl.find_opt t.stores.(rank) name with
  | Some tensor -> tensor
  | None ->
    invalid_arg (Printf.sprintf "Memory.find: no buffer %S on rank %d" name rank)

let buffers t ~rank =
  check_rank t rank "buffers";
  Hashtbl.fold (fun name _ acc -> name :: acc) t.stores.(rank) []
  |> List.sort compare

let bits_equal a b =
  world_size a = world_size b
  && List.for_all
       (fun rank ->
         let names = buffers a ~rank in
         names = buffers b ~rank
         && List.for_all
              (fun name ->
                Check.bits_equal (find a ~rank ~name) (find b ~rank ~name))
              names)
       (List.init (world_size a) Fun.id)
