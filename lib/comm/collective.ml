(* Operator-centric collectives — the NCCL-analog substrate.

   These are the communication primitives of the *baselines*: whole-
   operator AllGather / ReduceScatter / AllReduce / All2All that
   synchronize the full system on entry and exit (the coarse-grained
   SPMD synchronization §2.1 blames for idle compute units).

   Each collective is created once (shared synchronization state) and
   then every rank's part is started as a cursor with [start_rank].
   Timing comes from the cluster's links; the data-level variants at
   the bottom are pure tensor functions used by tests. *)

open Tilelink_sim
open Tilelink_machine

type algo = Ring | Mesh

type kind =
  | Allgather
  | Reducescatter
  | Allreduce
  | All2all

type t = {
  cluster : Cluster.t;
  kind : kind;
  algo : algo;
  bytes_per_shard : float;
  (* step counters: received.(rank) counts chunks that have landed on
     [rank]; used for ring-neighbor synchronization. *)
  received : Counter.t array;
  entry : Counter.t;  (* entry barrier *)
  exit_ : Counter.t;  (* exit barrier *)
}

let create cluster ~kind ~algo ~bytes_per_shard =
  let world = Cluster.world_size cluster in
  {
    cluster;
    kind;
    algo;
    bytes_per_shard;
    received = Array.init world (fun _ -> Counter.create ());
    entry = Counter.create ();
    exit_ = Counter.create ();
  }

let world t = Cluster.world_size t.cluster

(* A rank's part is written in continuation-passing style over one
   cursor: each wait or park installs what runs next as the cursor's
   step.  [wait] always books an event, even for a zero duration. *)
let wait c dt k =
  Cursor.set_step c k;
  Cursor.wait c dt

let park c register k =
  Cursor.set_step c k;
  Cursor.park c;
  register (Cursor.waker c)

let await_ge c counter threshold k =
  if Counter.value counter < threshold then
    park c (Counter.when_ge counter threshold) k
  else k ()

(* System-wide barrier: arrive, then wait for everyone. *)
let barrier c counter ~world k =
  Counter.add counter 1;
  await_ge c counter world k

(* Move [bytes] over the link from [src] to [dst]: admission, wire time
   sampled at admission, then latency.  A dead, unrecovered endpoint
   moves nothing and charges no time. *)
let transfer t c ~src ~dst ~bytes k =
  if not (Cluster.transfer_ok t.cluster ~src ~dst) then k ()
  else begin
    let link = Cluster.link t.cluster ~src ~dst in
    let wire () =
      wait c (Bandwidth.wire_time link ~bytes) (fun () ->
          Bandwidth.wire_done link ~bytes;
          wait c (Bandwidth.latency link) k)
    in
    if Bandwidth.try_admit link then wire ()
    else park c (Bandwidth.admit_later link) wire
  end

(* Start one cursor per peer (ascending rank, skipping [rank]) running
   [body], and park [c] until the last of them ends. *)
let fan_out t c ~rank body k =
  let engine = Cluster.engine t.cluster in
  let peers = List.filter (( <> ) rank) (List.init (world t) Fun.id) in
  let remaining = ref (List.length peers) in
  List.iter
    (fun peer ->
      let child = Cursor.create engine in
      Cursor.start child (fun () ->
          body child peer (fun () ->
              decr remaining;
              if !remaining = 0 then Cursor.waker c ();
              Cursor.finish child)))
    peers;
  if !remaining > 0 then park c ignore k else k ()

(* Ring step pattern shared by AllGather and ReduceScatter: at step s,
   send one shard to the next rank and wait to have received s+1
   chunks from the previous one. *)
let ring_steps t c ~rank ~local_cost k =
  let w = world t in
  let next = (rank + 1) mod w in
  let rec step s =
    if s > w - 2 then k ()
    else
      transfer t c ~src:rank ~dst:next ~bytes:t.bytes_per_shard (fun () ->
          Counter.add t.received.(next) 1;
          await_ge c t.received.(rank) (s + 1) (fun () ->
              local_cost c (fun () -> step (s + 1))))
  in
  step 0

(* Full-mesh: pull every remote shard; the per-source egress servers
   serialize conflicting transfers. *)
let mesh_pull t c ~rank ~local_cost k =
  fan_out t c ~rank
    (fun child src k ->
      transfer t child ~src ~dst:rank ~bytes:t.bytes_per_shard (fun () ->
          local_cost child k))
    k

(* Local reduction of one shard (read two operands, write one): a
   memory-bound pass using the whole chip (collectives run alone). *)
let reduce_cost t c k =
  let spec = Cluster.spec t.cluster in
  wait c
    (Cost.memory_pass_time spec ~sms:spec.Spec.gpu.num_sms
       ~bytes:(3.0 *. t.bytes_per_shard))
    k

let no_cost _ k = k ()

let start_rank t ~rank =
  let spec = Cluster.spec t.cluster in
  let w = world t in
  let c = Cursor.create (Cluster.engine t.cluster) in
  let phase ~local_cost k =
    match t.algo with
    | Ring -> ring_steps t c ~rank ~local_cost k
    | Mesh -> mesh_pull t c ~rank ~local_cost k
  in
  let body k =
    match t.kind with
    | Allgather -> phase ~local_cost:no_cost k
    | Reducescatter -> phase ~local_cost:(reduce_cost t) k
    | Allreduce ->
      (* reduce-scatter then all-gather. *)
      phase ~local_cost:(reduce_cost t) (fun () -> phase ~local_cost:no_cost k)
    | All2all ->
      (* Every rank sends a distinct 1/w slice to every other rank. *)
      fan_out t c ~rank
        (fun child dst k ->
          transfer t child ~src:rank ~dst
            ~bytes:(t.bytes_per_shard /. float_of_int w) k)
        k
  in
  (* Operator-centric entry: launch + system synchronization. *)
  Cursor.start c (fun () ->
      wait c spec.Spec.overheads.collective_setup (fun () ->
          barrier c t.entry ~world:w (fun () ->
              body (fun () ->
                  barrier c t.exit_ ~world:w (fun () ->
                      wait c spec.Spec.overheads.host_sync (fun () ->
                          Cursor.finish c))))))

(* Convenience: simulate the collective alone and return its time. *)
let standalone_time spec ~world_size ~kind ~algo ~bytes_per_shard =
  let cluster = Cluster.create spec ~world_size in
  let op = create cluster ~kind ~algo ~bytes_per_shard in
  for rank = 0 to world_size - 1 do
    start_rank op ~rank
  done;
  Engine.run (Cluster.engine cluster);
  Cluster.now cluster

(* ------------------------------------------------------------------ *)
(* Data-level collectives (pure; used to validate semantics and to     *)
(* build references for baselines).                                    *)
(* ------------------------------------------------------------------ *)

open Tilelink_tensor

let allgather_data shards = Tensor.concat_rows shards

let reduce_data tensors =
  match tensors with
  | [] -> invalid_arg "Collective.reduce_data: empty"
  | first :: rest -> List.fold_left Tensor.add first rest

let reducescatter_data tensors =
  let summed = reduce_data tensors in
  let w = List.length tensors in
  let rows = Tensor.rows summed in
  if rows mod w <> 0 then
    invalid_arg "Collective.reducescatter_data: rows not divisible";
  let per = rows / w in
  List.init w (fun r ->
      Tensor.row_slice summed ~lo:(r * per) ~hi:((r + 1) * per))

let allreduce_data tensors =
  let summed = reduce_data tensors in
  List.map (fun _ -> Tensor.copy summed) tensors

let all2all_data tensors =
  let w = List.length tensors in
  List.iter
    (fun t ->
      if Tensor.rows t mod w <> 0 then
        invalid_arg "Collective.all2all_data: rows not divisible")
    tensors;
  List.init w (fun dst ->
      Tensor.concat_rows
        (List.map
           (fun src_tensor ->
             let per = Tensor.rows src_tensor / w in
             Tensor.row_slice src_tensor ~lo:(dst * per) ~hi:((dst + 1) * per))
           tensors))
