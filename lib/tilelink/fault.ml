(* Fault injection: program transformations that model signalling bugs
   and timing skew.

   The value of an overlapped-kernel compiler rests on its
   synchronization being exactly right, so the test suite does not just
   check the happy path: these transformations produce *broken or
   skewed* variants of real programs, and tests assert that the
   runtime's deadlock detector catches lost signals, that premature
   waits surface as wrong data, and that pure delays never affect
   results (only time). *)

let map_rank_tasks (program : Program.t) ~rank ~f =
  let plans =
    Array.mapi
      (fun r plan ->
        if r <> rank then plan
        else
          List.map
            (fun role -> { role with Program.tasks = f role.Program.tasks })
            plan)
      (Program.plans program)
  in
  Program.create
    ~name:(Program.name program ^ "+fault")
    ~world_size:(Program.world_size program)
    ~pc_channels:program.Program.pc_channels
    ~peer_channels:program.Program.peer_channels plans

(* Drop the [nth] Notify instruction (0-based, in task order) on
   [rank]: a lost signal.  Consumers of that signal wait forever and
   the engine reports a deadlock instead of hanging. *)
let drop_notify (program : Program.t) ~rank ~nth =
  let seen = ref 0 in
  map_rank_tasks program ~rank ~f:(fun tasks ->
      List.map
        (fun (task : Program.task) ->
          {
            task with
            Program.instrs =
              List.filter
                (fun instr ->
                  match instr with
                  | Instr.Notify _ ->
                    let keep = !seen <> nth in
                    incr seen;
                    keep
                  | _ -> true)
                task.Program.instrs;
          })
        tasks)

(* Weaken every Wait on [rank] by [delta]: the consumer stops waiting
   for the last [delta] producer signals of each channel and may read
   data that has not arrived.  On a machine where transfers are slow
   this surfaces as wrong results — which is precisely what the tests
   assert. *)
let weaken_waits (program : Program.t) ~rank ~delta =
  if delta <= 0 then invalid_arg "Fault.weaken_waits: delta must be > 0";
  map_rank_tasks program ~rank ~f:(fun tasks ->
      List.map
        (fun (task : Program.task) ->
          {
            task with
            Program.instrs =
              List.map
                (fun instr ->
                  match instr with
                  | Instr.Wait { target; threshold; guards } ->
                    Instr.Wait
                      { target; threshold = max 0 (threshold - delta); guards }
                  | instr -> instr)
                task.Program.instrs;
          })
        tasks)

(* Prepend a fixed delay to every task of the named role on [rank]:
   timing skew.  A correct program must produce identical data (only
   the makespan may change). *)
let delay_role (program : Program.t) ~rank ~role_name ~us =
  if us < 0.0 then invalid_arg "Fault.delay_role: negative delay";
  let plans =
    Array.mapi
      (fun r plan ->
        if r <> rank then plan
        else
          List.map
            (fun role ->
              if role.Program.role_name <> role_name then role
              else
                {
                  role with
                  Program.tasks =
                    List.map
                      (fun (task : Program.task) ->
                        {
                          task with
                          Program.instrs =
                            Instr.Sleep us :: task.Program.instrs;
                        })
                      role.Program.tasks;
                })
            plan)
      (Program.plans program)
  in
  Program.create
    ~name:(Program.name program ^ "+skew")
    ~world_size:(Program.world_size program)
    ~pc_channels:program.Program.pc_channels
    ~peer_channels:program.Program.peer_channels plans

(* Emit the [nth] Notify twice: a retransmitted signal.  Because waits
   are >= comparisons on monotonic counters, a correct program must
   tolerate duplication — only the counter value inflates. *)
let duplicate_notify (program : Program.t) ~rank ~nth =
  let seen = ref 0 in
  map_rank_tasks program ~rank ~f:(fun tasks ->
      List.map
        (fun (task : Program.task) ->
          {
            task with
            Program.instrs =
              List.concat_map
                (fun instr ->
                  match instr with
                  | Instr.Notify _ ->
                    let dup = !seen = nth in
                    incr seen;
                    if dup then [ instr; instr ] else [ instr ]
                  | _ -> [ instr ])
                task.Program.instrs;
          })
        tasks)

(* Swap the payloads (target and amount) of the [nth] and [nth+1]
   Notify instructions in the rank's task order, keeping their
   positions: a reordered delivery.  If the two notifies land on
   different channels, the earlier channel's consumer can be released
   before its tile has been produced — premature data visibility. *)
let reorder_notifies (program : Program.t) ~rank ~nth =
  let notifies = ref [] in
  Array.iteri
    (fun r plan ->
      if r = rank then
        List.iter
          (fun role ->
            List.iter
              (fun (task : Program.task) ->
                List.iter
                  (fun instr ->
                    match instr with
                    | Instr.Notify _ -> notifies := instr :: !notifies
                    | _ -> ())
                  task.Program.instrs)
              role.Program.tasks)
          plan)
    (Program.plans program);
  let order = Array.of_list (List.rev !notifies) in
  if nth < 0 || nth + 1 >= Array.length order then
    invalid_arg "Fault.reorder_notifies: nth out of range";
  let tmp = order.(nth) in
  order.(nth) <- order.(nth + 1);
  order.(nth + 1) <- tmp;
  let seen = ref 0 in
  map_rank_tasks program ~rank ~f:(fun tasks ->
      List.map
        (fun (task : Program.task) ->
          {
            task with
            Program.instrs =
              List.map
                (fun instr ->
                  match instr with
                  | Instr.Notify _ ->
                    let replacement = order.(!seen) in
                    incr seen;
                    replacement
                  | _ -> instr)
                task.Program.instrs;
          })
        tasks)

(* Retarget the [nth] Notify on [rank] to the next rank's counter (a
   wrong f_R resolution): [Pc] moves to the neighbouring rank's channel,
   [Peer]/[Host] to the neighbouring destination.  The intended consumer
   is never signalled and a bystander key is signalled for nothing —
   the analyzer must report both ends. *)
let swap_notify_rank (program : Program.t) ~rank ~nth =
  let world = Program.world_size program in
  let seen = ref 0 in
  map_rank_tasks program ~rank ~f:(fun tasks ->
      List.map
        (fun (task : Program.task) ->
          {
            task with
            Program.instrs =
              List.map
                (fun instr ->
                  match instr with
                  | Instr.Notify { target; amount; releases } ->
                    let hit = !seen = nth in
                    incr seen;
                    if not hit then instr
                    else
                      let target =
                        match target with
                        | Instr.Pc { rank; channel } ->
                          Instr.Pc { rank = (rank + 1) mod world; channel }
                        | Instr.Peer { src; dst; channel } ->
                          Instr.Peer { src; dst = (dst + 1) mod world; channel }
                        | Instr.Host { src; dst } ->
                          Instr.Host { src; dst = (dst + 1) mod world }
                      in
                      Instr.Notify { target; amount; releases }
                  | _ -> instr)
                task.Program.instrs;
          })
        tasks)

(* Raise the [nth] Wait threshold on [rank] by one: an off-by-one epoch
   — the consumer demands a signal no producer will ever send. *)
let bump_wait_threshold (program : Program.t) ~rank ~nth =
  let seen = ref 0 in
  map_rank_tasks program ~rank ~f:(fun tasks ->
      List.map
        (fun (task : Program.task) ->
          {
            task with
            Program.instrs =
              List.map
                (fun instr ->
                  match instr with
                  | Instr.Wait { target; threshold; guards } ->
                    let hit = !seen = nth in
                    incr seen;
                    if hit then
                      Instr.Wait { target; threshold = threshold + 1; guards }
                    else instr
                  | _ -> instr)
                task.Program.instrs;
          })
        tasks)

(* Raise the [nth] Notify amount on [rank] by one: the key advances one
   epoch further than the protocol registered waiters for. *)
let bump_notify_amount (program : Program.t) ~rank ~nth =
  let seen = ref 0 in
  map_rank_tasks program ~rank ~f:(fun tasks ->
      List.map
        (fun (task : Program.task) ->
          {
            task with
            Program.instrs =
              List.map
                (fun instr ->
                  match instr with
                  | Instr.Notify { target; amount; releases } ->
                    let hit = !seen = nth in
                    incr seen;
                    if hit then
                      Instr.Notify { target; amount = amount + 1; releases }
                    else instr
                  | _ -> instr)
                task.Program.instrs;
          })
        tasks)

(* Elastic remap after a rank crash: rewrite every [Pc] signal target
   the dead rank owns onto the survivors with [Mapping.remap_channels],
   the same reroute [Mapping.remap_rank] applies; live targets carry
   rank-local coordinates and are unchanged.  The result's
   [pc_channels] grows to the remapped stride so the rerouted slots
   exist.  This is the *protocol-level* remap the analyzer re-validates
   before replay; peer/host channels are point-to-point and not part of
   f_C, so they stay as they are. *)
let remap_program (program : Program.t) ~dead ~survivors =
  let new_cpr, reroute =
    Mapping.remap_channels ~ranks:(Program.world_size program)
      ~channels_per_rank:program.Program.pc_channels ~dead ~survivors
  in
  let retarget reroute = function
    | Instr.Pc { rank; channel } ->
      let rank, channel = reroute rank channel in
      Instr.Pc { rank; channel }
    | t -> t
  in
  let rewrite = Instr.map_target retarget reroute in
  let plans =
    Array.map
      (fun plan ->
        List.map
          (fun role ->
            {
              role with
              Program.tasks =
                List.map
                  (fun (task : Program.task) ->
                    {
                      task with
                      Program.instrs = List.map rewrite task.Program.instrs;
                    })
                  role.Program.tasks;
            })
          plan)
      (Program.plans program)
  in
  Program.create
    ~name:(Program.name program ^ "+remap")
    ~world_size:(Program.world_size program) ~pc_channels:new_cpr
    ~peer_channels:program.Program.peer_channels plans

let count_rank_instrs (program : Program.t) ~rank ~p =
  List.fold_left
    (fun acc role ->
      List.fold_left
        (fun acc (task : Program.task) ->
          List.fold_left
            (fun acc instr -> if p instr then acc + 1 else acc)
            acc task.Program.instrs)
        acc role.Program.tasks)
    0
    (Program.plans program).(rank)

let count_notifies (program : Program.t) ~rank =
  count_rank_instrs program ~rank ~p:(function
    | Instr.Notify _ -> true
    | _ -> false)

let count_waits (program : Program.t) ~rank =
  count_rank_instrs program ~rank ~p:(function
    | Instr.Wait _ -> true
    | _ -> false)
