(* A closure-free rendering of a built program, and its digest.

   Every instruction is written out with its rank, role, task label,
   [Instr.to_string], accesses, guards, releases and cost; data actions
   are reduced to whether one is attached.  Two programs render alike
   exactly when their labels, instruction order, signal targets and
   costs agree, so a digest pins what a builder produces byte for
   byte. *)

open Tilelink_core

let access buf (a : Instr.access) =
  Printf.bprintf buf " %s@%s[%d:%d,%d:%d]" a.Instr.buffer
    (match a.Instr.mem_rank with Some r -> string_of_int r | None -> "self")
    (fst a.Instr.row) (snd a.Instr.row) (fst a.Instr.col) (snd a.Instr.col)

let accesses buf tag list =
  Printf.bprintf buf " %s{" tag;
  List.iter (access buf) list;
  Buffer.add_string buf " }"

let cost buf = function
  | Instr.Gemm_tile { tm; tn; k } ->
    Printf.bprintf buf " gemm(%d,%d,%d)" tm tn k
  | Instr.Attention_tile { tq; tkv; d } ->
    Printf.bprintf buf " attn(%d,%d,%d)" tq tkv d
  | Instr.Memory_tile { rows; cols; passes } ->
    Printf.bprintf buf " mem(%d,%d,%d)" rows cols passes
  | Instr.Fixed_cost us -> Printf.bprintf buf " fixed(%h)" us
  | Instr.Free -> Buffer.add_string buf " free"

let action buf a = if Option.is_some a then Buffer.add_string buf " +act"

let instr buf (i : Instr.t) =
  Buffer.add_string buf (Instr.to_string i);
  (match i with
  | Instr.Load { access = a } | Instr.Store { access = a } ->
    accesses buf "at" [ a ]
  | Instr.Compute { cost = c; reads; writes; action = a; _ } ->
    cost buf c;
    accesses buf "reads" reads;
    accesses buf "writes" writes;
    action buf a
  | Instr.Copy { src; dst; bytes; action = a; _ } ->
    Printf.bprintf buf " bytes=%h" bytes;
    accesses buf "src" [ src ];
    accesses buf "dst" [ dst ];
    action buf a
  | Instr.Wait { guards; _ } -> accesses buf "guards" guards
  | Instr.Notify { releases; _ } -> accesses buf "releases" releases
  | Instr.Sleep d -> Printf.bprintf buf " %h" d);
  Buffer.add_char buf '\n'

let render (p : Program.t) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "program %s world=%d pc=%d peer=%d\n" (Program.name p)
    (Program.world_size p) p.Program.pc_channels p.Program.peer_channels;
  Array.iteri
    (fun rank roles ->
      List.iter
        (fun (role : Program.role) ->
          Printf.bprintf buf "rank %d role %s %s %s\n" rank
            role.Program.role_name
            (Program.resource_to_string role.Program.resource)
            (Tilelink_sim.Trace.lane_to_string role.Program.lane);
          List.iter
            (fun (task : Program.task) ->
              Printf.bprintf buf "task %s\n" task.Program.label;
              List.iter (instr buf) task.Program.instrs)
            role.Program.tasks)
        roles)
    (Program.plans p);
  Buffer.contents buf

let digest p = Digest.to_hex (Digest.string (render p))
