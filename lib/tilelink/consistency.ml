(* Memory-consistency verification (paper §4.2).

   The notify primitives carry release semantics: no write to a
   released range may appear after the notify.  The wait primitives
   carry acquire semantics: no read of a guarded range may appear
   before the wait.  Compiler passes (pipelining in particular) reorder
   instructions; this verifier checks that a transformed stream still
   honors both rules, so a broken pass is caught at compile time
   instead of as silent data corruption. *)

type violation = {
  position : int;
  instr : string;
  rule : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "instr %d (%s): %s" v.position v.instr v.rule

type fence_kind = Read_before_acquire | Write_after_release

type fence_violation = {
  fv_position : int;       (* the misordered access *)
  fv_fence_position : int; (* the fence it crossed *)
  fv_instr : Instr.t;
  fv_fence : Instr.t;
  fv_kind : fence_kind;
}

(* Does any access of [instr]'s read (resp. write) footprint overlap
   any fenced range?  Written as plain recursion over the instruction's
   own lists so a clean scan allocates nothing. *)
let rec overlaps_access fenced a =
  match fenced with
  | [] -> false
  | f :: rest -> Instr.accesses_overlap f a || overlaps_access rest a

let rec overlaps_any fenced = function
  | [] -> false
  | a :: rest -> overlaps_access fenced a || overlaps_any fenced rest

let reads_overlap fenced = function
  | Instr.Load { access } -> overlaps_access fenced access
  | Instr.Compute { reads; _ } -> overlaps_any fenced reads
  | Instr.Copy { src; _ } -> overlaps_access fenced src
  | Instr.Store _ | Instr.Wait _ | Instr.Notify _ | Instr.Sleep _ -> false

let writes_overlap fenced = function
  | Instr.Store { access } -> overlaps_access fenced access
  | Instr.Compute { writes; _ } -> overlaps_any fenced writes
  | Instr.Copy { dst; _ } -> overlaps_access fenced dst
  | Instr.Load _ | Instr.Wait _ | Instr.Notify _ | Instr.Sleep _ -> false

(* Has [instr] a read (resp. write) footprint at all?  Only such an
   instruction is checked against the fences. *)
let has_reads = function
  | Instr.Load _ | Instr.Copy _ | Instr.Compute { reads = _ :: _; _ } -> true
  | _ -> false

let has_writes = function
  | Instr.Store _ | Instr.Copy _ | Instr.Compute { writes = _ :: _; _ } -> true
  | _ -> false

let record ~kind i instr j fence found =
  {
    fv_position = i;
    fv_fence_position = j;
    fv_instr = instr;
    fv_fence = fence;
    fv_kind = kind;
  }
  :: found

(* Reads of [instr] (at [i]) before a guarding Wait at [j] in
   [i+1 .. last], ascending [j]; [l] is the stream from [j]. *)
let rec reads_before_acquire i instr j last l found =
  if j > last then found
  else
    match l with
    | [] -> found
    | fence :: rest ->
      let found =
        match fence with
        | Instr.Wait { guards; _ } when reads_overlap guards instr ->
          record ~kind:Read_before_acquire i instr j fence found
        | _ -> found
      in
      reads_before_acquire i instr (j + 1) last rest found

(* Writes of [instr] (at [i]) after a releasing Notify at [j] in
   [j .. i-1], ascending [j]; [l] is the stream from [j]. *)
let rec writes_after_release i instr j l found =
  if j >= i then found
  else
    match l with
    | [] -> found
    | fence :: rest ->
      let found =
        match fence with
        | Instr.Notify { releases; _ } when writes_overlap releases instr ->
          record ~kind:Write_after_release i instr j fence found
        | _ -> found
      in
      writes_after_release i instr (j + 1) rest found

(* Acquire rule: a read of access [a] at position [i] must come after
   every Wait guarding an overlapping range.  Release rule: a write of
   access [a] at position [i] must come before every Notify releasing
   an overlapping range.  All violations are collected in scan order
   (ascending access position; reads before writes at equal position;
   ascending fence position) so [verify_task]'s head is the same first
   violation it has always reported, while the whole-program analyzer
   can resolve every one through the channel mappings.

   Only a Wait with guards or a Notify with releases can be crossed.  A
   first walk finds the last such Wait and the first such Notify; a
   stream with neither returns at once.  The second walk checks reads
   only against the stream up to that last Wait and writes only against
   the stream from that first Notify, and only an access with a read
   (resp. write) footprint is checked, without copying the stream or
   building footprint lists. *)
let rec scan_accesses i l ~last_wait ~first_notify ~notify_from found =
  match l with
  | [] -> List.rev found
  | instr :: rest ->
    let found =
      if i < last_wait && has_reads instr then
        reads_before_acquire i instr (i + 1) last_wait rest found
      else found
    in
    let found =
      if first_notify >= 0 && i > first_notify && has_writes instr then
        writes_after_release i instr first_notify notify_from found
      else found
    in
    scan_accesses (i + 1) rest ~last_wait ~first_notify ~notify_from found

(* The last guarding Wait's position, and the first releasing Notify's
   position and stream suffix. *)
let rec scan_fences instrs i l ~last_wait ~first_notify ~notify_from =
  match l with
  | [] ->
    if last_wait < 0 && first_notify < 0 then []
    else scan_accesses 0 instrs ~last_wait ~first_notify ~notify_from []
  | Instr.Wait { guards = _ :: _; _ } :: rest ->
    scan_fences instrs (i + 1) rest ~last_wait:i ~first_notify ~notify_from
  | Instr.Notify { releases = _ :: _; _ } :: rest when first_notify < 0 ->
    scan_fences instrs (i + 1) rest ~last_wait ~first_notify:i ~notify_from:l
  | _ :: rest ->
    scan_fences instrs (i + 1) rest ~last_wait ~first_notify ~notify_from

let fence_violations (instrs : Instr.t list) : fence_violation list =
  scan_fences instrs 0 instrs ~last_wait:(-1) ~first_notify:(-1)
    ~notify_from:[]

let violation_of_fence fv =
  let rule =
    match fv.fv_kind with
    | Read_before_acquire ->
      Printf.sprintf "read executes before its acquire fence at instr %d (%s)"
        fv.fv_fence_position
        (Instr.to_string fv.fv_fence)
    | Write_after_release ->
      Printf.sprintf "write executes after its release fence at instr %d (%s)"
        fv.fv_fence_position
        (Instr.to_string fv.fv_fence)
  in
  { position = fv.fv_position; instr = Instr.to_string fv.fv_instr; rule }

let verify_task (instrs : Instr.t list) : (unit, violation) result =
  match fence_violations instrs with
  | [] -> Ok ()
  | fv :: _ -> Error (violation_of_fence fv)

let verify_role (role : Program.role) =
  let rec check = function
    | [] -> Ok ()
    | (task : Program.task) :: rest -> (
      match verify_task task.Program.instrs with
      | Ok () -> check rest
      | Error v ->
        Error { v with rule = task.Program.label ^ ": " ^ v.rule })
  in
  check role.Program.tasks

let verify_program (p : Program.t) =
  let result = ref (Ok ()) in
  Array.iter
    (fun plan ->
      List.iter
        (fun role ->
          match !result with
          | Error _ -> ()
          | Ok () -> (
            match verify_role role with
            | Ok () -> ()
            | Error v ->
              result :=
                Error
                  { v with rule = role.Program.role_name ^ ": " ^ v.rule }))
        plan)
    (Program.plans p);
  !result
