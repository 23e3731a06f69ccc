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

(* Acquire rule: a read of access [a] at position [i] must come after
   every Wait guarding an overlapping range.  Release rule: a write of
   access [a] at position [i] must come before every Notify releasing
   an overlapping range.  All violations are collected in scan order
   (ascending access position; reads before writes at equal position;
   ascending fence position) so [verify_task]'s head is the same first
   violation it has always reported, while the whole-program analyzer
   can resolve every one through the channel mappings.  Only the
   fences are scanned per access, positions gathered once up front. *)
let fence_violations (arr : Instr.t array) : fence_violation list =
  let n = Array.length arr in
  let positions keep =
    let acc = ref [] in
    for j = n - 1 downto 0 do
      if keep arr.(j) then acc := j :: !acc
    done;
    Array.of_list !acc
  in
  let waits = positions (function Instr.Wait _ -> true | _ -> false) in
  let notifies = positions (function Instr.Notify _ -> true | _ -> false) in
  let found = ref [] in
  let record i j kind =
    found :=
      {
        fv_position = i;
        fv_fence_position = j;
        fv_instr = arr.(i);
        fv_fence = arr.(j);
        fv_kind = kind;
      }
      :: !found
  in
  let overlaps fenced accessed =
    List.exists
      (fun f -> List.exists (fun a -> Instr.accesses_overlap f a) accessed)
      fenced
  in
  for i = 0 to n - 1 do
    (* Reads before a later guarding Wait. *)
    let reads = Instr.reads_of arr.(i) in
    if reads <> [] then
      Array.iter
        (fun j ->
          if j > i then
            match arr.(j) with
            | Instr.Wait { guards; _ } ->
              if overlaps guards reads then record i j Read_before_acquire
            | _ -> ())
        waits;
    (* Writes after an earlier releasing Notify. *)
    let writes = Instr.writes_of arr.(i) in
    if writes <> [] then
      Array.iter
        (fun j ->
          if j < i then
            match arr.(j) with
            | Instr.Notify { releases; _ } ->
              if overlaps releases writes then record i j Write_after_release
            | _ -> ())
        notifies
  done;
  List.rev !found

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
  match fence_violations (Array.of_list instrs) with
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
