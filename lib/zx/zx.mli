(** EPOC's graph-based depth optimization stage (paper section 3.1).

    {!optimize} runs circuit -> ZX-diagram -> interior Clifford
    simplification -> extraction -> peephole cleanup, verifying the
    result against the input unitary when the circuit is small enough
    to simulate.  Any extraction failure or verification mismatch falls
    back to the sound circuit-level peephole optimizer, so the stage
    never returns a circuit that is not equivalent to its input. *)

open Epoc_circuit

type strategy = Graph | Peephole_only

type report = {
  circuit : Circuit.t;
  used : strategy;  (** what actually produced the result *)
  input_depth : int;
  output_depth : int;
  input_gates : int;
  output_gates : int;
  verified : bool;  (** unitary equality checked (small circuits only) *)
}

val log_src : Logs.src

type objective = Latency | Depth

(** Optimize a circuit.  The graph result is kept only when it improves
    on the sound peephole result under [objective] (a weighted
    critical-path latency proxy, {!Epoc_circuit.Reorder.weighted_depth},
    by default); otherwise, and on any extraction failure, the peephole
    result is returned.  A kept graph result on at most 8 qubits is
    verified against the input unitary first. *)
val optimize : ?strategy:strategy -> ?objective:objective -> Circuit.t -> report

(** Stage counters for the pass pipeline's trace sink. *)
val counters : report -> (string * int) list
