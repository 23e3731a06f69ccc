(* Fault injection: program transformations that model signalling bugs
   and timing skew.

   The value of an overlapped-kernel compiler rests on its
   synchronization being exactly right, so the test suite does not just
   check the happy path: these transformations produce *broken or
   skewed* variants of real programs, and tests assert that the
   runtime's deadlock detector catches lost signals, that premature
   waits surface as wrong data, and that pure delays never affect
   results (only time). *)

(* One walk over every plan: rebuild [program], named with [suffix],
   with [f ~rank role task] in place of each task. *)
let map_tasks ?pc_channels (program : Program.t) ~suffix ~f =
  let plans =
    Array.mapi
      (fun rank plan ->
        List.map
          (fun role ->
            {
              role with
              Program.tasks = List.map (f ~rank role) role.Program.tasks;
            })
          plan)
      (Program.plans program)
  in
  Program.create
    ~name:(Program.name program ^ suffix)
    ~world_size:(Program.world_size program)
    ~pc_channels:
      (Option.value pc_channels ~default:program.Program.pc_channels)
    ~peer_channels:program.Program.peer_channels plans

(* The instruction rewrite every signalling fault is made of: on [rank],
   the [i]th instruction [select] picks (0-based, in task order) is
   replaced by [f i instr]. *)
let rewrite (program : Program.t) ~rank ~select ~f =
  let seen = ref 0 in
  map_tasks program ~suffix:"+fault" ~f:(fun ~rank:r _role task ->
      if r <> rank then task
      else
        {
          task with
          Program.instrs =
            List.concat_map
              (fun instr ->
                if select instr then begin
                  let i = !seen in
                  incr seen;
                  f i instr
                end
                else [ instr ])
              task.Program.instrs;
        })

(* Replace only the [nth] selected instruction. *)
let at_nth nth g i instr = if i = nth then g instr else [ instr ]

let is_notify = function Instr.Notify _ -> true | _ -> false
let is_wait = function Instr.Wait _ -> true | _ -> false

let rank_instrs (program : Program.t) ~rank =
  List.concat_map
    (fun role ->
      List.concat_map (fun task -> task.Program.instrs) role.Program.tasks)
    (Program.plans program).(rank)

(* Drop the [nth] Notify instruction (0-based, in task order) on
   [rank]: a lost signal.  Consumers of that signal wait forever and
   the engine reports a deadlock instead of hanging. *)
let drop_notify program ~rank ~nth =
  rewrite program ~rank ~select:is_notify ~f:(at_nth nth (fun _ -> []))

(* Weaken every Wait on [rank] by [delta]: the consumer stops waiting
   for the last [delta] producer signals of each channel and may read
   data that has not arrived.  On a machine where transfers are slow
   this surfaces as wrong results — which is precisely what the tests
   assert. *)
let weaken_waits program ~rank ~delta =
  if delta <= 0 then invalid_arg "Fault.weaken_waits: delta must be > 0";
  rewrite program ~rank ~select:is_wait ~f:(fun _ -> function
    | Instr.Wait { target; threshold; guards } ->
      [ Instr.Wait { target; threshold = max 0 (threshold - delta); guards } ]
    | instr -> [ instr ])

(* Prepend a fixed delay to every task of the named role on [rank]:
   timing skew.  A correct program must produce identical data (only
   the makespan may change). *)
let delay_role program ~rank ~role_name ~us =
  if us < 0.0 then invalid_arg "Fault.delay_role: negative delay";
  map_tasks program ~suffix:"+skew" ~f:(fun ~rank:r role task ->
      if r <> rank || role.Program.role_name <> role_name then task
      else { task with Program.instrs = Instr.Sleep us :: task.Program.instrs })

(* Emit the [nth] Notify twice: a retransmitted signal.  Because waits
   are >= comparisons on monotonic counters, a correct program must
   tolerate duplication — only the counter value inflates. *)
let duplicate_notify program ~rank ~nth =
  rewrite program ~rank ~select:is_notify
    ~f:(at_nth nth (fun instr -> [ instr; instr ]))

(* Swap the payloads (target and amount) of the [nth] and [nth+1]
   Notify instructions in the rank's task order, keeping their
   positions: a reordered delivery.  If the two notifies land on
   different channels, the earlier channel's consumer can be released
   before its tile has been produced — premature data visibility. *)
let reorder_notifies program ~rank ~nth =
  let order =
    Array.of_list (List.filter is_notify (rank_instrs program ~rank))
  in
  if nth < 0 || nth + 1 >= Array.length order then
    invalid_arg "Fault.reorder_notifies: nth out of range";
  let tmp = order.(nth) in
  order.(nth) <- order.(nth + 1);
  order.(nth + 1) <- tmp;
  rewrite program ~rank ~select:is_notify ~f:(fun i _ -> [ order.(i) ])

(* Retarget the [nth] Notify on [rank] to the next rank's counter (a
   wrong f_R resolution): [Pc] moves to the neighbouring rank's channel,
   [Peer]/[Host] to the neighbouring destination.  The intended consumer
   is never signalled and a bystander key is signalled for nothing —
   the analyzer must report both ends. *)
let swap_notify_rank program ~rank ~nth =
  let world = Program.world_size program in
  let next r = (r + 1) mod world in
  rewrite program ~rank ~select:is_notify
    ~f:
      (at_nth nth (function
        | Instr.Notify { target; amount; releases } ->
          let target =
            match target with
            | Instr.Pc { rank; channel } ->
              Instr.Pc { rank = next rank; channel }
            | Instr.Peer { src; dst; channel } ->
              Instr.Peer { src; dst = next dst; channel }
            | Instr.Host { src; dst } -> Instr.Host { src; dst = next dst }
          in
          [ Instr.Notify { target; amount; releases } ]
        | instr -> [ instr ]))

(* Raise the [nth] Wait threshold on [rank] by one: an off-by-one epoch
   — the consumer demands a signal no producer will ever send. *)
let bump_wait_threshold program ~rank ~nth =
  rewrite program ~rank ~select:is_wait
    ~f:
      (at_nth nth (function
        | Instr.Wait { target; threshold; guards } ->
          [ Instr.Wait { target; threshold = threshold + 1; guards } ]
        | instr -> [ instr ]))

(* Raise the [nth] Notify amount on [rank] by one: the key advances one
   epoch further than the protocol registered waiters for. *)
let bump_notify_amount program ~rank ~nth =
  rewrite program ~rank ~select:is_notify
    ~f:
      (at_nth nth (function
        | Instr.Notify { target; amount; releases } ->
          [ Instr.Notify { target; amount = amount + 1; releases } ]
        | instr -> [ instr ]))

(* [List.map f l], sharing the longest suffix [f] leaves physically
   unchanged: [l] itself when [f] changes nothing. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x in
    let rest' = map_shared f rest in
    if x' == x && rest' == rest then l else x' :: rest'

(* Elastic remap after a rank crash: rewrite every [Pc] signal target
   the dead rank owns onto the survivors with [Mapping.remap_channels],
   the same reroute [Mapping.remap_rank] applies; live targets carry
   rank-local coordinates and are unchanged.  The result's
   [pc_channels] grows to the remapped stride so the rerouted slots
   exist.  Every target, instruction and task the remap leaves
   unchanged is the original value itself, so only the rerouted ones
   are copied.  This is the *protocol-level* remap the analyzer
   re-validates before replay; peer/host channels are point-to-point
   and not part of f_C, so they stay as they are. *)
let remap_program (program : Program.t) ~dead ~survivors =
  let new_cpr, reroute =
    Mapping.remap_channels ~ranks:(Program.world_size program)
      ~channels_per_rank:program.Program.pc_channels ~dead ~survivors
  in
  let retarget (dead, reroute) = function
    | Instr.Pc { rank; channel } when rank = dead ->
      let rank, channel = reroute rank channel in
      Instr.Pc { rank; channel }
    | t -> t
  in
  let rewrite = Instr.map_target retarget (dead, reroute) in
  map_tasks program ~suffix:"+remap" ~pc_channels:new_cpr
    ~f:(fun ~rank:_ _role task ->
      let instrs = map_shared rewrite task.Program.instrs in
      if instrs == task.Program.instrs then task
      else { task with Program.instrs })

let count_notifies program ~rank =
  List.length (List.filter is_notify (rank_instrs program ~rank))

let count_waits program ~rank =
  List.length (List.filter is_wait (rank_instrs program ~rank))
