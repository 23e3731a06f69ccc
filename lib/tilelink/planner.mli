(** Auto-overlap planner: derive the full Pc notify/wait protocol for a
    gather-producer operator graph instead of hand-writing it.

    The input is a small operator-graph IR — one AllGather producer
    feeding one or more tiled row-range consumers — plus the decoupled
    design space.  The planner enumerates candidate overlap schedules
    (transfer direction, chunking, tile shapes, orders, bindings),
    synthesizes each candidate into an ordinary {!Program.t} built
    purely from {!Primitive} statements lowered through a
    {!Mapping.static} (no hand-written notify/wait code), rejects
    statically-broken candidates through {!Analyzer.check}, and scores
    the survivors under the simulator via {!Tune.search_planned} —
    makespan first, exposed-communication blame as the tiebreak. *)

(** {1 Operator graph} *)

type consumer_kind =
  | Gemm of { weights : string; n : int }
      (** [out[m, n] = gathered[m, k] @ weights[k, n]]; [weights] is a
          per-rank buffer of shape [k x n]. *)
  | Softmax_rows
      (** [out[m, k] = row_softmax (gathered[m, k])]; compute tiles
          span the full gathered width (a row's max and sum need every
          column). *)

type consumer = {
  co_name : string;  (** role and task naming *)
  co_out : string;  (** output buffer, [m x width] per rank *)
  co_kind : consumer_kind;
}

val consumer : name:string -> out:string -> consumer_kind -> consumer

type graph = {
  g_name : string;
  g_rows : int;  (** global gathered rows (m) *)
  g_cols : int;  (** gather width (k) *)
  g_world : int;
  g_consumers : consumer list;
}

val graph :
  name:string ->
  rows:int ->
  cols:int ->
  world:int ->
  consumer list ->
  graph
(** Validated constructor.  The gather reads the per-rank input shard
    ["x_shard"] ([m/world x k]) and writes ["x_full"] ([m x k]).
    Raises [Invalid_argument] when [rows] does not divide over
    [world], the consumer list is empty, or two consumers share an
    output buffer. *)

val graph_fingerprint : graph -> string
(** Stable identity of the operator graph and shape — the workload
    component of the planner's cache keys. *)

(** {1 Candidates} *)

type transfer = Push | Pull

val transfer_to_string : transfer -> string

type candidate = {
  pl_config : Design_space.config;
  pl_transfer : transfer;
      (** producer pushes its shard to every rank vs each rank pulls *)
  pl_chunks : int;  (** consumer inner-loop chunk count over [k] *)
}

val candidate_to_string : candidate -> string

val fingerprint : candidate -> string
(** Extends {!Design_space.fingerprint} with the planner-only axes so
    cache keys never conflate two schedules. *)

type space = {
  sp_design : Design_space.space;
  sp_transfers : transfer list;
  sp_chunks : int list;
}

val default_space : graph -> space
(** A shape-adapted candidate space: communication tile rows are drawn
    from divisors of the shard, compute tiles from a ladder clipped to
    the extents, both transfer directions and chunk counts [1; 2]. *)

val enumerate : space -> candidate list

(** {1 Synthesis} *)

val softmax_rows : Tilelink_tensor.Tensor.t -> Tilelink_tensor.Tensor.t
(** Numerically-deterministic row softmax (max-subtracted, row by
    row) — the single definition both the synthesized programs and
    reference checks share, so bit-identity is by construction. *)

val synthesize :
  graph -> candidate -> spec_gpu:Tilelink_machine.Spec.t -> Program.t
(** Build the full overlapped program for one candidate: the gather
    protocol (push or pull), every consumer's waits, chunked loads,
    compute actions and stores, and the resource roles the binding
    asks for.  Raises [Invalid_argument] on infeasible tile/shape
    combinations — {!Tune} counts those as skipped builds. *)

(** {1 Search} *)

type plan = {
  p_candidate : candidate;
  p_program : Program.t;  (** the winning synthesized program *)
  p_time : float;  (** simulated makespan, µs *)
  p_exposed_comm_us : float option;
  p_outcome : (candidate * Program.t) Tune.outcome;
      (** full search statistics (skips, prunes, cache hits, all
          evaluations); [|evaluated| + pruned + skipped] is the
          candidate count *)
}

val search :
  ?pool:Tilelink_exec.Pool.t ->
  ?cache:Tilelink_exec.Cache.t ->
  ?candidates:candidate list ->
  graph ->
  spec_gpu:Tilelink_machine.Spec.t ->
  make_cluster:(unit -> Tilelink_machine.Cluster.t) ->
  unit ->
  plan option
(** Enumerate (or take [candidates]), synthesize, analyzer-prune and
    score every candidate; [None] when nothing both built and passed
    the protocol analysis.  The winner minimizes makespan with
    exposed-communication blame as the tiebreak (earliest candidate on
    a full tie, so the result is deterministic across pool widths).
    A candidate whose makespan lower bound exceeds a simulated
    makespan is counted as [pruned] instead of simulated; it could
    neither win nor tie, so the plan is the one exhaustive scoring
    gives.
    Candidates with an entry this process wrote to [cache] are scored
    from it without synthesis or analysis; the plan is the same as on
    a cold cache. *)
