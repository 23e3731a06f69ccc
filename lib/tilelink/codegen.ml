(* Device-code emission: the reproduction's stand-in for the paper's
   Distributed IR -> LLVM -> PTX stage (§6, Figure 7).

   Lowered instruction streams render to an NVSHMEM-flavored pseudo-PTX
   listing: acquire waits become [ld.global.acquire] spin loops, release
   notifies become [membar + red.release], remote copies become
   [nvshmem_putmem_nbi / getmem_nbi], async loads become [cp.async].
   Nothing executes this text — the simulator interprets the same
   instructions — but it makes the backend translation inspectable and
   testable: every fence the consistency checker reasons about appears
   as a concrete instruction, in order. *)

let target_symbol = function
  | Instr.Pc { rank; channel } -> Printf.sprintf "%%pc_bar_r%d_c%d" rank channel
  | Instr.Peer { src; dst; channel } ->
    Printf.sprintf "%%peer_bar_%d_to_%d_c%d" src dst channel
  | Instr.Host { src; dst } -> Printf.sprintf "%%host_bar_%d_to_%d" src dst

let access_symbol (a : Instr.access) =
  match a.Instr.mem_rank with
  | None -> Printf.sprintf "%%%s" a.Instr.buffer
  | Some rank -> Printf.sprintf "%%%s@r%d" a.Instr.buffer rank

let access_offset (a : Instr.access) =
  Printf.sprintf "[%s + %d*ld + %d]" (access_symbol a) (fst a.Instr.row)
    (fst a.Instr.col)

(* TVM-TIR-flavored rendering of the same instructions — the paper's
   second future-work direction (§7.4: "extend the low-level compilers,
   e.g. TVM, while keeping the primitives and compilation techniques of
   TileLink unchanged").  Same stream, different backend syntax. *)
let emit_instr_tir instr =
  match instr with
  | Instr.Wait { target; threshold; _ } ->
    [
      Printf.sprintf
        "  while T.tvm_load_scope(\"%s\", sync=\"acquire\") < %d: T.yield()"
        (target_symbol target) threshold;
    ]
  | Instr.Notify { target; amount; _ } ->
    [
      Printf.sprintf
        "  T.tvm_storage_sync(\"global\"); T.atomic_add(\"%s\", %d, sync=\"release\")"
        (target_symbol target) amount;
    ]
  | Instr.Load { access } ->
    [
      Printf.sprintf "  T.copy_async(smem, %s)  # %d bytes"
        (access_offset access)
        (int_of_float (Lower.bytes_of_access access));
    ]
  | Instr.Store { access } ->
    [ Printf.sprintf "  T.store_global(%s, acc)" (access_offset access) ]
  | Instr.Compute { label; _ } ->
    [ Printf.sprintf "  T.call_extern(\"tile_compute\", \"%s\")" label ]
  | Instr.Copy { src; dst; bytes; _ } ->
    [
      Printf.sprintf "  T.call_extern(\"nvshmem_copy\", %s, %s, %d)"
        (access_offset dst) (access_offset src) (int_of_float bytes);
    ]
  | Instr.Sleep us -> [ Printf.sprintf "  T.sleep(%.2f)" us ]

let emit_instr instr =
  match instr with
  | Instr.Wait { target; threshold; _ } ->
    let symbol = target_symbol target in
    [
      Printf.sprintf "$spin_%s:" (String.map (function '%' -> '_' | c -> c) symbol);
      Printf.sprintf "  ld.global.acquire.sys.u32 %%r0, [%s];" symbol;
      Printf.sprintf "  setp.lt.u32 %%p0, %%r0, %d;" threshold;
      Printf.sprintf "  @%%p0 bra $spin_%s;"
        (String.map (function '%' -> '_' | c -> c) symbol);
    ]
  | Instr.Notify { target; amount; _ } ->
    [
      "  membar.sys;";
      Printf.sprintf "  red.release.sys.global.add.u32 [%s], %d;"
        (target_symbol target) amount;
    ]
  | Instr.Load { access } ->
    [
      Printf.sprintf "  cp.async.ca.shared.global [%%smem], %s, %d;"
        (access_offset access)
        (int_of_float (Lower.bytes_of_access access));
    ]
  | Instr.Store { access } ->
    [ Printf.sprintf "  st.global.v8.b16 %s, %%acc;" (access_offset access) ]
  | Instr.Compute { label; cost; _ } -> (
    match cost with
    | Instr.Gemm_tile { tm; tn; k } ->
      [
        Printf.sprintf "  // %s: GEMM mainloop %dx%dx%d" label tm tn k;
        Printf.sprintf "  mma.loop %d { mma.sync.aligned.m16n8k16.f32.bf16 }"
          (max 1 (k / 16));
      ]
    | Instr.Attention_tile { tq; tkv; d } ->
      [
        Printf.sprintf "  // %s: flash tile q=%d kv=%d d=%d" label tq tkv d;
        "  mma.loop { qk^T; online-softmax; pv }";
      ]
    | Instr.Memory_tile { rows; cols; passes } ->
      [
        Printf.sprintf "  // %s: memory-bound %dx%d (%d passes)" label rows
          cols passes;
        "  ld.global.v8.b16 / st.global.v8.b16 loop";
      ]
    | Instr.Fixed_cost us -> [ Printf.sprintf "  // %s: %.2f us" label us ]
    | Instr.Free -> [ Printf.sprintf "  // %s" label ])
  | Instr.Copy { src; dst; bytes; _ } ->
    let remote r = Option.value r ~default:(-1) in
    if src.Instr.mem_rank = dst.Instr.mem_rank then
      [
        Printf.sprintf "  cp.bulk %s, %s, %d;" (access_offset dst)
          (access_offset src) (int_of_float bytes);
      ]
    else if dst.Instr.mem_rank <> None then
      [
        Printf.sprintf "  nvshmem_putmem_nbi(%s, %s, %d, /*pe=*/%d);"
          (access_offset dst) (access_offset src) (int_of_float bytes)
          (remote dst.Instr.mem_rank);
      ]
    else
      [
        Printf.sprintf "  nvshmem_getmem_nbi(%s, %s, %d, /*pe=*/%d);"
          (access_offset dst) (access_offset src) (int_of_float bytes)
          (remote src.Instr.mem_rank);
      ]
  | Instr.Sleep us -> [ Printf.sprintf "  nanosleep %.0f;" (us *. 1e3) ]

type target = Ptx | Tir

let instr_emitter = function Ptx -> emit_instr | Tir -> emit_instr_tir

let emit_task ?(target = Ptx) (task : Program.task) =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Printf.sprintf "// task %s\n" task.Program.label);
  List.iter
    (fun instr ->
      List.iter
        (fun line ->
          Buffer.add_string buffer line;
          Buffer.add_char buffer '\n')
        (instr_emitter target instr))
    task.Program.instrs;
  Buffer.contents buffer

let emit_role ?(target = Ptx) (role : Program.role) =
  let buffer = Buffer.create 1024 in
  (match target with
  | Ptx ->
    Buffer.add_string buffer
      (Printf.sprintf ".kernel %s (.resource %s)\n{\n" role.Program.role_name
         (Program.resource_to_string role.Program.resource))
  | Tir ->
    Buffer.add_string buffer
      (Printf.sprintf "@T.prim_func  # %s on %s\ndef %s():\n"
         role.Program.role_name
         (Program.resource_to_string role.Program.resource)
         (String.map (function '-' -> '_' | c -> c) role.Program.role_name)));
  List.iter
    (fun task -> Buffer.add_string buffer (emit_task ~target task))
    role.Program.tasks;
  (match target with Ptx -> Buffer.add_string buffer "}\n" | Tir -> ());
  Buffer.contents buffer

let emit_rank (program : Program.t) ~rank =
  if rank < 0 || rank >= Program.world_size program then
    invalid_arg "Codegen.emit_rank: rank out of range";
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer
    (Printf.sprintf
       "// %s — rank %d of %d (pc channels %d, peer channels %d)\n"
       (Program.name program) rank
       (Program.world_size program)
       program.Program.pc_channels program.Program.peer_channels);
  List.iter
    (fun role -> Buffer.add_string buffer (emit_role role))
    (Program.plans program).(rank);
  Buffer.contents buffer

(* Instruction-count statistics of the emitted code; used by tests to
   pin the fence discipline (one acquire spin per wait, one release per
   notify). *)
type stats = {
  acquires : int;
  releases : int;
  async_loads : int;
  remote_puts : int;
  remote_gets : int;
}

let count_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let stats_of_listing listing =
  {
    acquires = count_substring listing "ld.global.acquire";
    releases = count_substring listing "red.release";
    async_loads = count_substring listing "cp.async";
    remote_puts = count_substring listing "nvshmem_putmem_nbi";
    remote_gets = count_substring listing "nvshmem_getmem_nbi";
  }
