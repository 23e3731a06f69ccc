(* Default data semantics shared by the sequential interpreter
   (runtime.ml) and the parallel backend (parallel.ml): what a [Copy]
   instruction without an explicit action closure does to the rank
   memories.  Kept in its own module so both interpreters execute the
   byte-identical blit and can never drift apart. *)

let resolve_rank ~self = function Some r -> r | None -> self

(* Blit the source block into the destination block, row by row and
   in place; a same-buffer copy with overlapping rows reads each source
   row before it is overwritten. *)
let copy_action (src : Instr.access) (dst : Instr.access) : Instr.action =
 fun memory ~rank ->
  let find (a : Instr.access) =
    Memory.find memory
      ~rank:(resolve_rank ~self:rank a.Instr.mem_rank)
      ~name:a.Instr.buffer
  in
  Tilelink_tensor.Tensor.blit_block ~src:(find src) ~rows:src.Instr.row
    ~cols:src.Instr.col ~dst:(find dst)
    ~at:(fst dst.Instr.row, fst dst.Instr.col)
