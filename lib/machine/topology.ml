(* Declarative cluster topologies.

   A topology names a machine *shape* — how many NVLink islands, how
   many ranks per island, whether the ranks are heterogeneous (mixed
   SM counts / link speeds: stragglers by construction, not by
   injection) and whether co-tenant background traffic taxes the
   shared NIC links.  [layout] compiles the shape against a concrete
   world size into plain arrays and pure closures that [Cluster.create]
   wires into its existing rate hooks, so [same_node] / NIC routing
   become topology-driven instead of implicit in [gpus_per_node].

   Everything here is deterministic: the co-tenant tax is a stateless
   hash of (island, time bucket), so a seeded simulation replays
   byte-identically. *)

type shape =
  | Flat of int  (* one NVLink island of [n] ranks *)
  | Islands of { islands : int; per_island : int }
      (* [islands] NVLink islands bridged by per-island NICs *)

type t = {
  name : string;
  shape : shape;
  hetero : bool;  (* per-rank SM / link-speed scale factors *)
  cotenant : bool;  (* background traffic tax on shared NICs *)
}

let flat8 = { name = "flat8"; shape = Flat 8; hetero = false; cotenant = false }

let islands2x8 =
  {
    name = "islands2x8";
    shape = Islands { islands = 2; per_island = 8 };
    hetero = false;
    cotenant = false;
  }

let islands4x8 =
  {
    name = "islands4x8";
    shape = Islands { islands = 4; per_island = 8 };
    hetero = false;
    cotenant = false;
  }

let hetero16 =
  {
    name = "hetero16";
    shape = Islands { islands = 2; per_island = 8 };
    hetero = true;
    cotenant = false;
  }

let cotenant2x8 =
  {
    name = "cotenant2x8";
    shape = Islands { islands = 2; per_island = 8 };
    hetero = false;
    cotenant = true;
  }

let all = [ flat8; islands2x8; islands4x8; hetero16; cotenant2x8 ]
let name t = t.name
let names () = List.map name all

let of_string s =
  match List.find_opt (fun t -> t.name = s) all with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown topology %S (expected one of: %s)" s
         (String.concat "|" (names ())))

let ranks_per_island t =
  match t.shape with Flat n -> n | Islands { per_island; _ } -> per_island

let num_islands t =
  match t.shape with Flat _ -> 1 | Islands { islands; _ } -> islands

let natural_world t = num_islands t * ranks_per_island t

(* Heterogeneous SKU mix: a repeating four-rank pattern.  Two
   full-speed parts, one with fewer effective SMs (compute 15% slower)
   and one older part with both slower compute and a narrower NVLink
   attach.  Scales are duration multipliers (compute, >= 1) and rate
   multipliers (link, <= 1). *)
let hetero_compute_scale rank =
  match rank mod 4 with 1 -> 1.15 | 3 -> 1.30 | _ -> 1.0

let hetero_link_scale rank = match rank mod 4 with 3 -> 0.75 | _ -> 1.0

(* Co-tenant background traffic: a stateless splitmix64-style hash of
   (seed, island, time bucket) drives a piecewise-constant NIC rate
   multiplier in [0.45, 1.0].  Pure in simulation time, so replays are
   exact; a fresh 50 µs bucket redraws the tax. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash_unit ~seed ~island ~bucket =
  let open Int64 in
  let z =
    mix64
      (add
         (mul (of_int seed) 0x9e3779b97f4a7c15L)
         (add (mul (of_int island) 0x2545f4914f6cdd1dL) (of_int bucket)))
  in
  Int64.to_float (shift_right_logical z 11) /. 9007199254740992.0 (* 2^53 *)

let cotenant_seed = 0x7313
let cotenant_bucket_us = 50.0

let cotenant_tax ~island ~now =
  let bucket = int_of_float (Float.max 0.0 now /. cotenant_bucket_us) in
  1.0 -. (0.55 *. hash_unit ~seed:cotenant_seed ~island ~bucket)

(* A topology compiled against a concrete world size: everything the
   cluster needs, as plain data.  World sizes that are not the natural
   world still lay out left-to-right, [ranks_per_island] ranks per
   island (a short tail island is fine — mirrors how [Cluster] already
   treats a partial last node). *)
type layout = {
  l_topology : t;
  l_world : int;
  l_num_islands : int;
  l_island_of_rank : int array;
  l_compute_scale : float array;  (* per-rank duration multiplier, >= 1 *)
  l_link_scale : float array;  (* per-rank NVLink rate multiplier, <= 1 *)
  l_nic_tax : (island:int -> now:float -> float) option;
}

let layout t ~world_size =
  if world_size <= 0 then invalid_arg "Topology.layout: world_size must be > 0";
  let per = ranks_per_island t in
  {
    l_topology = t;
    l_world = world_size;
    l_num_islands = (world_size + per - 1) / per;
    l_island_of_rank = Array.init world_size (fun r -> r / per);
    l_compute_scale =
      Array.init world_size (fun r ->
          if t.hetero then hetero_compute_scale r else 1.0);
    l_link_scale =
      Array.init world_size (fun r ->
          if t.hetero then hetero_link_scale r else 1.0);
    l_nic_tax = (if t.cotenant then Some cotenant_tax else None);
  }

let island_of l rank =
  if rank < 0 || rank >= l.l_world then
    invalid_arg "Topology.island_of: rank out of range";
  l.l_island_of_rank.(rank)

let islands l = l.l_num_islands

let describe t =
  let traits =
    (if t.hetero then [ "heterogeneous ranks" ] else [])
    @ (if t.cotenant then [ "co-tenant NIC traffic" ] else [])
    |> function [] -> "homogeneous" | ts -> String.concat ", " ts
  in
  match t.shape with
  | Flat n -> Printf.sprintf "%s: 1 island x %d ranks, %s" t.name n traits
  | Islands { islands; per_island } ->
    Printf.sprintf "%s: %d islands x %d ranks (%d total), %s" t.name islands
      per_island (islands * per_island) traits
