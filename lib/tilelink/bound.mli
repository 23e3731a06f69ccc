(** Admissible lower bound on a program's simulated makespan, computed
    from the cost model without running the simulator. *)

val makespan : Tilelink_machine.Cluster.t -> Program.t -> float
(** A time no crash-free {!Runtime.run} of the program on this cluster
    can beat, in µs.  It is the largest of three terms:
    - per role: kernel launch plus the role's serial work divided by
      its worker count;
    - per task: kernel launch plus the task's serial work;
    - per rank: kernel launch plus the compute of its SM roles divided
      by the SM count.

    An instruction's serial work is the least time the interpreter can
    charge it: a [Compute] its tile cost on one SM, a [Copy] its link
    transfer time (or local HBM round trip), a [Wait] or [Notify] its
    signal overhead.  Every multiplier the interpreter may apply —
    fusion interference, straggler scale, link throttles — counts at
    [min 1] of its value at call time, and the result is scaled by
    [1 - 1e-9] so that summing the same durations in another order
    never lifts it above a real makespan.  Reads the cluster's static
    configuration only; it does not advance or consume it. *)
