(* Whole-program protocol analyzer.

   The lowered protocol is a set of monotonic counters: every Notify
   adds to one, every Wait blocks until one reaches a threshold.  Three
   static views of that protocol catch the classic signalling bugs
   before a simulation (or a real kernel) wedges:

   1. *Accounting* — per key, compare the total supply producers will
      ever signal against every registered waiter threshold.  A wait
      demanding more than the supply can never complete (unmatched); a
      signalled key with no waiter is a wrong f_R/f_C resolution on the
      consumer side (unconsumed); supply past the highest registered
      threshold starts an epoch no registered waiter covers (reuse).

   2. *Reachability* — run the protocol to a fixpoint with every task
      stream maximally parallel.  Because counters are monotonic and
      waits are [>=] comparisons, executing everything eagerly is the
      most permissive schedule: any stream still blocked at the
      fixpoint is blocked under *every* worker schedule, so a reported
      cycle is a true deadlock, never a scheduling artifact.

   3. *Ordering* — per-task acquire/release violations from
      [Consistency], resolved through the key space so the diagnostic
      names the producing rank and channel of the fence that was
      crossed (the [hoist_loads_unsafe] class of miscompile).

   Diagnostics use the runtime's counter-key naming ([pc[r][c]],
   [peer[d<-s][c]], [host[d<-s]]) so static reports line up with
   runtime deadlock enrichment and chaos stall output. *)

type severity = Error | Warning

type edge = {
  e_rank : int;
  e_role : string;
  e_task : string;
  e_key : string;
  e_threshold : int;
  e_producer_rank : int;
}

type kind =
  | Unmatched_wait of { threshold : int; available : int }
  | Unconsumed_notify of { amount : int }
  | Epoch_reuse of { available : int; max_threshold : int; waiters : int }
  | Deadlock_cycle of { cycle : edge list }
  | Data_race of {
      race : Consistency.fence_kind;
      position : int;
      fence_position : int;
      access : string;
    }
  | Mapping_mismatch of { expected : int; actual : int }

type diag = {
  severity : severity;
  kind : kind;
  key : string;
  rank : int;
  channel : int option;
  producer : int;
  role : string;
  task : string;
  detail : string;
}

type report = {
  program : string;
  world_size : int;
  diags : diag list;
  keys : int;
  notifies : int;
  waits : int;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let kind_name = function
  | Unmatched_wait _ -> "unmatched_wait"
  | Unconsumed_notify _ -> "unconsumed_notify"
  | Epoch_reuse _ -> "epoch_reuse"
  | Deadlock_cycle _ -> "deadlock_cycle"
  | Data_race _ -> "data_race"
  | Mapping_mismatch _ -> "mapping_mismatch"

let diag_to_string d =
  Printf.sprintf "[%s] %s %s: %s" (severity_to_string d.severity)
    (kind_name d.kind) d.key d.detail

(* ------------------------------------------------------------------ *)
(* Signal inventory                                                    *)
(* ------------------------------------------------------------------ *)

(* One signalling endpoint: who, from where, how much. *)
type endpoint = {
  ep_amount : int; (* notify amount or wait threshold *)
  ep_rank : int;
  ep_role : string;
  ep_task : string;
}

(* Every distinct signal target gets a dense id in first-touch
   (traversal) order, which is the order diagnostics come out in.  A
   target inside the program's channel layout maps by arithmetic to a
   slot: [Pc] slots first, then [Peer] by (dst, src, channel), then
   [Host] by (dst, src).  The slot maps to its id through a flat array.
   A target outside the layout (a mutant's or a hand-written program's),
   or any target of a layout with more than [max_dense_slots] slots,
   keeps its own entry in a structural table, so it never aliases an
   in-layout key. *)
let max_dense_slots = 1 lsl 16

type keys = {
  world : int;
  pc : int;
  peer : int;
  dense : int array; (* slot -> id, -1 unseen; [||] for a large layout *)
  outside : (Instr.signal_target, int) Hashtbl.t;
}

let slot_of k = function
  | Instr.Pc { rank; channel } ->
    if rank >= 0 && rank < k.world && channel >= 0 && channel < k.pc then
      (rank * k.pc) + channel
    else -1
  | Instr.Peer { src; dst; channel } ->
    if
      src >= 0 && src < k.world && dst >= 0 && dst < k.world && channel >= 0
      && channel < k.peer
    then (k.world * k.pc) + ((((dst * k.world) + src) * k.peer) + channel)
    else -1
  | Instr.Host { src; dst } ->
    if src >= 0 && src < k.world && dst >= 0 && dst < k.world then
      (k.world * k.pc) + (k.world * k.world * k.peer) + (dst * k.world) + src
    else -1

(* A stream the eager fixpoint has parked: [p_rest] starts at the Wait
   it is blocked on. *)
type parked = {
  p_id : int; (* [Program.iter_tasks] order *)
  p_rank : int;
  p_role : Program.role;
  p_task : Program.task;
  mutable p_rest : Instr.t list;
}

(* Per-key state lives in flat int arrays indexed by key id, grown by
   doubling as keys are first touched. *)
type inventory = {
  keys : keys;
  mutable count : int;
  mutable targets : Instr.signal_target array;
  mutable supply : int array; (* total amount ever notified *)
  mutable notify_count : int array;
  mutable wait_count : int array;
  mutable max_wait : int array; (* highest threshold; min_int if none *)
  mutable avail : int array; (* fixpoint counter *)
  mutable blocked : parked list array; (* fixpoint: parked on the key *)
  woken : parked Queue.t; (* fixpoint: to resume, in wake order *)
  mutable notifies : int;
  mutable waits : int;
}

let grow inv =
  let cap = 2 * Array.length inv.supply in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 inv.count;
    b
  in
  inv.targets <- extend inv.targets inv.targets.(0);
  inv.supply <- extend inv.supply 0;
  inv.notify_count <- extend inv.notify_count 0;
  inv.wait_count <- extend inv.wait_count 0;
  inv.max_wait <- extend inv.max_wait min_int;
  inv.avail <- extend inv.avail 0;
  inv.blocked <- extend inv.blocked []

let add_key inv target =
  if inv.count = Array.length inv.supply then grow inv;
  let id = inv.count in
  inv.targets.(id) <- target;
  inv.count <- id + 1;
  id

(* The id of [target], given the next id on first touch. *)
let key_id inv target =
  let k = inv.keys in
  let slot = if Array.length k.dense = 0 then -1 else slot_of k target in
  if slot < 0 then (
    match Hashtbl.find_opt k.outside target with
    | Some id -> id
    | None ->
      let id = add_key inv target in
      Hashtbl.add k.outside target id;
      id)
  else
    let id = k.dense.(slot) in
    if id >= 0 then id
    else
      let id = add_key inv target in
      k.dense.(slot) <- id;
      id

let key_name inv k = Instr.key_of_target inv.targets.(k)

(* ------------------------------------------------------------------ *)
(* The walk: inventory and eager fixpoint                              *)
(* ------------------------------------------------------------------ *)

(* Reachability runs every stream eagerly until all are finished or
   blocked on a wait.  Counters are monotonic and waits are [>=]
   comparisons, so this schedule is maximally permissive and the
   blocked set is exactly the statically-doomed set.  After the
   inventory walk, each stream runs once in traversal order: a stream
   that blocks is parked on the key it waits for, and a notify on that
   key queues it to resume once every stream has had its first run.
   That is the order of a queue holding every stream in traversal
   order, with woken streams appended, so even a negative notify
   amount, which breaks monotonicity, meets the same schedule.  Only
   parked streams get a record. *)
let rec enqueue q = function
  | [] -> ()
  | p :: rest ->
    Queue.add p q;
    enqueue q rest

let signal inv k amount =
  inv.avail.(k) <- inv.avail.(k) + amount;
  match inv.blocked.(k) with
  | [] -> ()
  | woken ->
    inv.blocked.(k) <- [];
    enqueue inv.woken woken

(* Run [l] until it ends ([[]]) or reaches a Wait its counter does not
   satisfy (the suffix from that Wait). *)
let rec run inv l =
  match l with
  | [] -> l
  | Instr.Wait { target; threshold; _ } :: rest ->
    if inv.avail.(key_id inv target) >= threshold then run inv rest else l
  | Instr.Notify { target; amount; _ } :: rest ->
    signal inv (key_id inv target) amount;
    run inv rest
  | _ :: rest -> run inv rest

let park inv p =
  match p.p_rest with
  | Instr.Wait { target; _ } :: _ ->
    let k = key_id inv target in
    inv.blocked.(k) <- p :: inv.blocked.(k)
  | _ -> assert false (* streams only block on waits *)

let rec resume_woken inv =
  if not (Queue.is_empty inv.woken) then begin
    let p = Queue.take inv.woken in
    (match run inv p.p_rest with
    | [] -> ()
    | l ->
      p.p_rest <- l;
      park inv p);
    resume_woken inv
  end

(* One task's stream: count every signal into its key's state. *)
let rec take_stock inv = function
  | [] -> ()
  | Instr.Wait { target; threshold; _ } :: rest ->
    let k = key_id inv target in
    inv.waits <- inv.waits + 1;
    inv.wait_count.(k) <- inv.wait_count.(k) + 1;
    if threshold > inv.max_wait.(k) then inv.max_wait.(k) <- threshold;
    take_stock inv rest
  | Instr.Notify { target; amount; _ } :: rest ->
    let k = key_id inv target in
    inv.notifies <- inv.notifies + 1;
    inv.notify_count.(k) <- inv.notify_count.(k) + 1;
    inv.supply.(k) <- inv.supply.(k) + amount;
    take_stock inv rest
  | _ :: rest -> take_stock inv rest

(* Resolve every target and total every key, then run the fixpoint,
   both over the tasks' own lists. *)
let inventory_of (p : Program.t) =
  let world = Program.world_size p in
  let pc = p.Program.pc_channels and peer = p.Program.peer_channels in
  let slots = (world * pc) + (world * world * peer) + (world * world) in
  let cap = 64 in
  let inv =
    {
      keys =
        {
          world;
          pc;
          peer;
          dense =
            (if slots > max_dense_slots then [||] else Array.make slots (-1));
          outside = Hashtbl.create 1;
        };
      count = 0;
      targets = Array.make cap (Instr.Host { src = 0; dst = 0 });
      supply = Array.make cap 0;
      notify_count = Array.make cap 0;
      wait_count = Array.make cap 0;
      max_wait = Array.make cap min_int;
      avail = Array.make cap 0;
      blocked = Array.make cap [];
      woken = Queue.create ();
      notifies = 0;
      waits = 0;
    }
  in
  Program.iter_tasks p ~f:(fun ~rank:_ _ task ->
      take_stock inv task.Program.instrs);
  let next_stream = ref 0 in
  Program.iter_tasks p ~f:(fun ~rank role task ->
      let id = !next_stream in
      incr next_stream;
      match run inv task.Program.instrs with
      | [] -> ()
      | rest ->
        park inv
          { p_id = id; p_rank = rank; p_role = role; p_task = task; p_rest = rest });
  resume_woken inv;
  inv

(* The endpoints of the keys [keep] selects, in traversal order.  They
   are rebuilt from the streams only when a pass needs them: for a key
   that yields a diagnostic, and in the mapping cross-check. *)
let endpoints inv (p : Program.t) ~keep =
  let notifies = Array.make inv.count [] and waits = Array.make inv.count [] in
  Program.iter_tasks p ~f:(fun ~rank role task ->
      let endpoint amount =
        {
          ep_amount = amount;
          ep_rank = rank;
          ep_role = role.Program.role_name;
          ep_task = task.Program.label;
        }
      in
      List.iter
        (function
          | Instr.Notify { target; amount; _ } ->
            let k = key_id inv target in
            if keep k then notifies.(k) <- endpoint amount :: notifies.(k)
          | Instr.Wait { target; threshold; _ } ->
            let k = key_id inv target in
            if keep k then waits.(k) <- endpoint threshold :: waits.(k)
          | _ -> ())
        task.Program.instrs);
  (Array.map List.rev notifies, Array.map List.rev waits)

(* The highest registered threshold, or 0 for a key nobody waits on. *)
let max_threshold inv k = max 0 inv.max_wait.(k)

let mk_diag severity kind inv k (ep : endpoint) detail =
  let target = inv.targets.(k) in
  {
    severity;
    kind;
    key = key_name inv k;
    rank = ep.ep_rank;
    channel = Instr.channel_of_target target;
    producer = Instr.producer_of_target target;
    role = ep.ep_role;
    task = ep.ep_task;
    detail;
  }

(* ------------------------------------------------------------------ *)
(* 1. Accounting: unmatched / unconsumed / epoch reuse                 *)
(* ------------------------------------------------------------------ *)

(* The key totals say which keys have a diagnostic; only those keys'
   endpoints are rebuilt, to name the first offending task. *)
let accounting_diags inv p =
  let unmatched k = inv.wait_count.(k) > 0 && inv.max_wait.(k) > inv.supply.(k)
  and unconsumed k = inv.notify_count.(k) > 0 && inv.wait_count.(k) = 0
  and reused k =
    inv.wait_count.(k) > 0
    && inv.notify_count.(k) > 0
    && inv.supply.(k) > max_threshold inv k
  in
  let flagged k = unmatched k || unconsumed k || reused k in
  let rec any k = k < inv.count && (flagged k || any (k + 1)) in
  if not (any 0) then []
  else begin
    let notifies, waits = endpoints inv p ~keep:flagged in
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    for k = 0 to inv.count - 1 do
      let avail = inv.supply.(k) in
      let unmatched = List.filter (fun ep -> ep.ep_amount > avail) waits.(k) in
      (match unmatched with
      | [] -> ()
      | first :: _ ->
        emit
          (mk_diag Error
             (Unmatched_wait { threshold = first.ep_amount; available = avail })
             inv k first
             (Printf.sprintf
                "rank %d %s/%s waits %s >= %d but producers only ever signal \
                 %d%s"
                first.ep_rank first.ep_role first.ep_task (key_name inv k)
                first.ep_amount avail
                (match List.length unmatched with
                | 1 -> ""
                | n -> Printf.sprintf " (%d waits affected)" n))));
      (match (notifies.(k), waits.(k)) with
      | first :: _, [] ->
        emit
          (mk_diag Warning
             (Unconsumed_notify { amount = avail })
             inv k first
             (Printf.sprintf
                "rank %d %s/%s signals %s (+%d total) but no task ever waits \
                 on it"
                first.ep_rank first.ep_role first.ep_task (key_name inv k)
                avail))
      | _ -> ());
      match waits.(k) with
      | first_wait :: _ when notifies.(k) <> [] ->
        let t_max = max_threshold inv k in
        if avail > t_max then
          emit
            (mk_diag Error
               (Epoch_reuse
                  {
                    available = avail;
                    max_threshold = t_max;
                    waiters = inv.wait_count.(k);
                  })
               inv k first_wait
               (Printf.sprintf
                  "%s is signalled to %d but the highest of its %d registered \
                   waiter thresholds is %d: the key is re-signalled past \
                   every registered waiter's epoch"
                  (key_name inv k) avail inv.wait_count.(k) t_max))
      | _ -> ()
    done;
    List.rev !diags
  end

(* ------------------------------------------------------------------ *)
(* 2. Reachability: wait-for cycles among the streams left parked      *)
(* ------------------------------------------------------------------ *)

(* Wait-for cycles among statically-matched blocked streams: streams
   stuck on a key whose supply is short are already reported as
   unmatched waits; the rest are blocked on signals that exist but
   cannot be emitted — the circular part of the graph is the root
   cause. *)
let deadlock_diags inv =
  let stuck = ref [] in
  Array.iter (List.iter (fun s -> stuck := s :: !stuck)) inv.blocked;
  if !stuck = [] then []
  else begin
    let stuck = List.sort (fun a b -> compare a.p_id b.p_id) !stuck in
    let wait_of s =
      match s.p_rest with
      | Instr.Wait { target; threshold; _ } :: _ -> (key_id inv target, threshold)
      | _ -> assert false (* parked streams block on waits *)
    in
    let statically_matched s =
      let k, threshold = wait_of s in
      threshold <= inv.supply.(k)
    in
    let nodes = List.filter statically_matched stuck in
    let node_ids = List.map (fun s -> s.p_id) nodes in
    let by_id = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace by_id s.p_id s) nodes;
    (* key id -> stuck matched streams still holding a notify to it *)
    let producers : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let seen = Hashtbl.create 8 in
        List.iter
          (function
            | Instr.Notify { target; _ } ->
              let k = key_id inv target in
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                match Hashtbl.find_opt producers k with
                | Some ids -> ids := s.p_id :: !ids
                | None -> Hashtbl.add producers k (ref [ s.p_id ])
              end
            | _ -> ())
          s.p_rest)
      nodes;
    let succs id =
      let s = Hashtbl.find by_id id in
      let k, _ = wait_of s in
      match Hashtbl.find_opt producers k with
      | None -> []
      | Some ids -> List.rev !ids
    in
    (* DFS with colors; every back edge closes one cycle. *)
    let color = Hashtbl.create 16 in
    let col id = Option.value ~default:`White (Hashtbl.find_opt color id) in
    let stack = ref [] in
    let cycles = ref [] in
    let rec dfs id =
      Hashtbl.replace color id `Grey;
      stack := id :: !stack;
      List.iter
        (fun next ->
          match col next with
          | `Grey ->
            (* !stack = id :: ... :: next :: _; the prefix down to
               [next] is the cycle, oldest first. *)
            let rec take acc = function
              | [] -> acc
              | x :: rest -> if x = next then x :: acc else take (x :: acc) rest
            in
            cycles := take [] !stack :: !cycles
          | `White -> dfs next
          | `Black -> ())
        (succs id);
      Hashtbl.replace color id `Black;
      stack := List.tl !stack
    in
    List.iter (fun id -> if col id = `White then dfs id) node_ids;
    let cycles = List.rev !cycles in
    (* Cap the report: one diag per cycle, at most four cycles — a
       wedged collective usually repeats one pattern per rank pair. *)
    let rec cap n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: cap (n - 1) rest
    in
    let cycle_diag ids =
      let streams_in = List.map (Hashtbl.find by_id) ids in
      let n = List.length streams_in in
      let edges =
        List.mapi
          (fun i s ->
            let k, threshold = wait_of s in
            let next = List.nth streams_in ((i + 1) mod n) in
            {
              e_rank = s.p_rank;
              e_role = s.p_role.Program.role_name;
              e_task = s.p_task.Program.label;
              e_key = key_name inv k;
              e_threshold = threshold;
              e_producer_rank = next.p_rank;
            })
          streams_in
      in
      let first = List.hd streams_in in
      let k, threshold = wait_of first in
      let target = inv.targets.(k) in
      let rendered =
        String.concat " -> "
          (List.map
             (fun e ->
               Printf.sprintf "rank %d %s/%s waits %s >= %d" e.e_rank e.e_role
                 e.e_task e.e_key e.e_threshold)
             edges)
      in
      {
        severity = Error;
        kind = Deadlock_cycle { cycle = edges };
        key = key_name inv k;
        rank = first.p_rank;
        channel = Instr.channel_of_target target;
        producer = Instr.producer_of_target target;
        role = first.p_role.Program.role_name;
        task = first.p_task.Program.label;
        detail =
          Printf.sprintf
            "circular wait among %d task streams (threshold %d): %s -> back \
             to rank %d"
            n threshold rendered first.p_rank;
      }
    in
    let norm ids = List.sort compare ids in
    let seen = Hashtbl.create 4 in
    let distinct =
      List.filter
        (fun ids ->
          let k = norm ids in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        cycles
    in
    List.map cycle_diag (cap 4 distinct)
  end

(* ------------------------------------------------------------------ *)
(* 3. Ordering: per-task fence violations, resolved to keys            *)
(* ------------------------------------------------------------------ *)

let race_diags (p : Program.t) =
  let diags = ref [] in
  Program.iter_tasks p ~f:(fun ~rank role task ->
      match Consistency.fence_violations task.Program.instrs with
      | [] -> ()
      | violations ->
        List.iter
          (fun (fv : Consistency.fence_violation) ->
            (* Fences are waits/notifies by construction. *)
            let target =
              match fv.Consistency.fv_fence with
              | Instr.Wait { target; _ } | Instr.Notify { target; _ } -> target
              | _ -> assert false
            in
            let key = Instr.key_of_target target in
            let producer = Instr.producer_of_target target in
            let access = Instr.to_string fv.Consistency.fv_instr in
            let verb =
              match fv.Consistency.fv_kind with
              | Consistency.Read_before_acquire ->
                "reads before the acquire wait on"
              | Consistency.Write_after_release ->
                "writes after the release notify on"
            in
            let role = role.Program.role_name and task = task.Program.label in
            diags :=
              {
                severity = Error;
                kind =
                  Data_race
                    {
                      race = fv.Consistency.fv_kind;
                      position = fv.Consistency.fv_position;
                      fence_position = fv.Consistency.fv_fence_position;
                      access;
                    };
                key;
                rank;
                channel = Instr.channel_of_target target;
                producer;
                role;
                task;
                detail =
                  Printf.sprintf
                    "rank %d %s/%s instr %d (%s) %s %s (instr %d): data race \
                     with the producing rank %d"
                    rank role task fv.Consistency.fv_position access verb key
                    fv.Consistency.fv_fence_position producer;
              }
              :: !diags)
          violations);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let analyze (p : Program.t) =
  let inv = inventory_of p in
  let diags = accounting_diags inv p @ deadlock_diags inv @ race_diags p in
  {
    program = Program.name p;
    world_size = Program.world_size p;
    diags;
    keys = inv.count;
    notifies = inv.notifies;
    waits = inv.waits;
  }

let errors report =
  List.filter (fun d -> d.severity = Error) report.diags

let ok report = errors report = []

let check p =
  match errors (analyze p) with [] -> Ok () | diags -> Error diags

exception Protocol_violation of diag list

let () =
  Printexc.register_printer (function
    | Protocol_violation diags ->
      Some
        (Printf.sprintf "Analyzer.Protocol_violation (%d diagnostics):\n%s"
           (List.length diags)
           (String.concat "\n"
              (List.map (fun d -> "  " ^ diag_to_string d) diags)))
    | _ -> None)

let check_exn p =
  match check p with Ok () -> () | Error diags -> raise (Protocol_violation diags)

let check_message p =
  match check p with
  | Ok () -> Ok ()
  | Error diags ->
    let shown =
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      take 3 diags
    in
    let suffix =
      match List.length diags - List.length shown with
      | 0 -> ""
      | more -> Printf.sprintf " (+%d more)" more
    in
    Error
      (String.concat "; " (List.map diag_to_string shown) ^ suffix)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Tilelink_obs.Json

let num i = Json.Num (float_of_int i)

let edge_to_json e =
  Json.Obj
    [
      ("rank", num e.e_rank);
      ("role", Json.Str e.e_role);
      ("task", Json.Str e.e_task);
      ("key", Json.Str e.e_key);
      ("threshold", num e.e_threshold);
      ("producer_rank", num e.e_producer_rank);
    ]

let kind_fields = function
  | Unmatched_wait { threshold; available } ->
    [ ("threshold", num threshold); ("available", num available) ]
  | Unconsumed_notify { amount } -> [ ("amount", num amount) ]
  | Epoch_reuse { available; max_threshold; waiters } ->
    [
      ("available", num available);
      ("max_threshold", num max_threshold);
      ("waiters", num waiters);
    ]
  | Deadlock_cycle { cycle } ->
    [ ("cycle", Json.List (List.map edge_to_json cycle)) ]
  | Data_race { race; position; fence_position; access } ->
    [
      ( "race",
        Json.Str
          (match race with
          | Consistency.Read_before_acquire -> "read_before_acquire"
          | Consistency.Write_after_release -> "write_after_release") );
      ("position", num position);
      ("fence_position", num fence_position);
      ("access", Json.Str access);
    ]
  | Mapping_mismatch { expected; actual } ->
    [ ("expected", num expected); ("actual", num actual) ]

let diag_to_json d =
  Json.Obj
    ([
       ("severity", Json.Str (severity_to_string d.severity));
       ("kind", Json.Str (kind_name d.kind));
       ("key", Json.Str d.key);
       ("rank", num d.rank);
       ( "channel",
         match d.channel with None -> Json.Null | Some c -> num c );
       ("producer", num d.producer);
       ("role", Json.Str d.role);
       ("task", Json.Str d.task);
       ("detail", Json.Str d.detail);
     ]
    @ kind_fields d.kind)

let report_to_json r =
  Json.Obj
    [
      ("program", Json.Str r.program);
      ("world_size", num r.world_size);
      ("keys", num r.keys);
      ("notifies", num r.notifies);
      ("waits", num r.waits);
      ("errors", num (List.length (errors r)));
      ( "warnings",
        num
          (List.length (List.filter (fun d -> d.severity = Warning) r.diags))
      );
      ("diags", Json.List (List.map diag_to_json r.diags));
    ]

(* ------------------------------------------------------------------ *)
(* Mapping cross-check                                                 *)
(* ------------------------------------------------------------------ *)

let check_against_mapping (p : Program.t) ~mapping =
  if
    Mapping.ranks mapping <> Program.world_size p
    || Mapping.channels_per_rank mapping <> p.Program.pc_channels
  then
    invalid_arg
      "Analyzer.check_against_mapping: mapping layout does not match program";
  let inv = inventory_of p in
  let is_pc k = match inv.targets.(k) with Instr.Pc _ -> true | _ -> false in
  let notifies, waits = endpoints inv p ~keep:is_pc in
  let diags = ref [] in
  for k = 0 to inv.count - 1 do
    match inv.targets.(k) with
    | Instr.Pc { rank; channel } ->
      let expected =
        Mapping.expected mapping
          ~channel:(Mapping.global_channel mapping ~rank ~local:channel)
      in
      let over_waits =
        List.filter (fun ep -> ep.ep_amount > expected) waits.(k)
      in
      (match over_waits with
      | [] -> ()
      | first :: _ ->
        diags :=
          mk_diag Error
            (Mapping_mismatch { expected; actual = first.ep_amount })
            inv k first
            (Printf.sprintf
               "rank %d %s/%s waits %s >= %d but the mapping registers only \
                %d producer tiles for this channel"
               first.ep_rank first.ep_role first.ep_task (key_name inv k)
               first.ep_amount expected)
          :: !diags);
      let total = inv.supply.(k) in
      if total > expected then
        let first = List.hd notifies.(k) in
        diags :=
          mk_diag Error
            (Mapping_mismatch { expected; actual = total })
            inv k first
            (Printf.sprintf
               "%s receives %d signals but the mapping registers only %d \
                producer tiles for this channel"
               (key_name inv k) total expected)
          :: !diags
    | Instr.Peer _ | Instr.Host _ -> ()
  done;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Mutation corpus                                                     *)
(* ------------------------------------------------------------------ *)

(* [rank]'s Notify/Wait instructions in [Fault]'s task order, paired
   with their key id. *)
let rank_signals inv (p : Program.t) ~rank =
  let notifies = ref [] and waits = ref [] in
  List.iter
    (fun role ->
      List.iter
        (fun task ->
          List.iter
            (function
              | Instr.Notify { target; amount; _ } ->
                notifies := (key_id inv target, amount) :: !notifies
              | Instr.Wait { target; threshold; _ } ->
                waits := (key_id inv target, threshold) :: !waits
              | _ -> ())
            task.Program.instrs)
        role.Program.tasks)
    (Program.plans p).(rank);
  (List.rev !notifies, List.rev !waits)

let mutation_corpus ~seed (p : Program.t) =
  let world = Program.world_size p in
  let inv = inventory_of p in
  let key_stats k = (inv.supply.(k), max_threshold inv k, inv.wait_count.(k)) in
  (* All (rank, nth) whose mutation is statically visible, across the
     whole program; the seed picks one deterministically. *)
  let eligible ~signals ~keep =
    List.concat_map
      (fun rank ->
        signals rank
        |> List.mapi (fun nth item -> (nth, item))
        |> List.filter_map (fun (nth, item) ->
               if keep item then Some (rank, nth) else None))
      (List.init world Fun.id)
  in
  let pick ~salt = function
    | [] -> None
    | candidates ->
      Some (List.nth candidates ((seed + salt) mod List.length candidates))
  in
  let notify_signals rank = fst (rank_signals inv p ~rank) in
  let wait_signals rank = snd (rank_signals inv p ~rank) in
  (* Losing this notify leaves some registered waiter short. *)
  let drop_visible (key, amount) =
    let avail, t_max, waiters = key_stats key in
    waiters > 0 && t_max > avail - amount
  in
  (* Demanding one more than this wait does must exceed the supply. *)
  let bump_wait_visible (key, threshold) =
    let avail, _, _ = key_stats key in
    threshold + 1 > avail
  in
  (* One extra signal must pass every registered threshold. *)
  let bump_notify_visible (key, _) =
    let avail, t_max, waiters = key_stats key in
    waiters > 0 && avail + 1 > t_max
  in
  let corpus = ref [] in
  let add name mutant = corpus := (name, mutant) :: !corpus in
  (match pick ~salt:1 (eligible ~signals:notify_signals ~keep:drop_visible) with
  | Some (rank, nth) -> add "dropped_notify" (Fault.drop_notify p ~rank ~nth)
  | None -> ());
  (if world > 1 then
     match pick ~salt:2 (eligible ~signals:notify_signals ~keep:drop_visible) with
     | Some (rank, nth) ->
       add "swapped_rank" (Fault.swap_notify_rank p ~rank ~nth)
     | None -> ());
  (match
     pick ~salt:3 (eligible ~signals:wait_signals ~keep:bump_wait_visible)
   with
  | Some (rank, nth) ->
    add "wait_epoch_off_by_one" (Fault.bump_wait_threshold p ~rank ~nth)
  | None -> ());
  (match
     pick ~salt:4 (eligible ~signals:notify_signals ~keep:bump_notify_visible)
   with
  | Some (rank, nth) ->
    add "notify_epoch_off_by_one" (Fault.bump_notify_amount p ~rank ~nth)
  | None -> ());
  add "unsafe_hoist" (Pipeline.pipeline_program_unsafe ~stages:4 p);
  List.rev !corpus
