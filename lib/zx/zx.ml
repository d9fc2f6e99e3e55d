(* EPOC's graph-based depth optimization stage (paper section 3.1).

   [optimize] runs circuit -> ZX-diagram -> interior Clifford simplification
   -> extraction -> peephole cleanup, verifying the result against the
   input unitary when the circuit is small enough to simulate.  Any
   extraction failure or verification mismatch falls back to the sound
   circuit-level peephole optimizer, so the stage never returns a circuit
   that is not equivalent to its input. *)

open Epoc_circuit

type strategy = Graph | Peephole_only

type report = {
  circuit : Circuit.t;
  used : strategy; (* what actually produced the result *)
  input_depth : int;
  output_depth : int;
  input_gates : int;
  output_gates : int;
  verified : bool; (* unitary equality checked (small circuits only) *)
}

let log_src = Logs.Src.create "epoc.zx" ~doc:"ZX optimization stage"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Upper bound on qubits for unitary verification: 2^8 x 2^8 matrices. *)
let verify_qubits = 8

let graph_pipeline c =
  let g = To_zx.of_circuit c in
  Simplify.interior_clifford_simp g;
  let extracted = Extract.extract g in
  Peephole.optimize ~aggressive:true extracted

type objective = Latency | Depth

let optimize ?(strategy = Graph) ?(objective = Latency) (c : Circuit.t) =
  let finish used result verified =
    {
      circuit = result;
      used;
      input_depth = Circuit.depth c;
      output_depth = Circuit.depth result;
      input_gates = Circuit.gate_count c;
      output_gates = Circuit.gate_count result;
      verified;
    }
  in
  let fallback reason =
    Log.debug (fun m -> m "falling back to peephole: %s" reason);
    finish Peephole_only (Peephole.optimize ~aggressive:true c) false
  in
  (* extraction can inflate CNOT counts on dense diagrams (a known
     ZX-extraction effect); keep the graph result only when it actually
     improves on the sound peephole result.  The comparison uses a
     weighted critical-path proxy for pulse latency
     ([Reorder.weighted_depth]: entangling gates cost ~6x a single-qubit
     gate on the default hardware model; Z-family rotations are
     virtual). *)
  let cost c =
    match objective with
    | Latency ->
        ( Reorder.weighted_depth c,
          Circuit.multi_qubit_count c,
          Circuit.gate_count c )
    | Depth -> (Circuit.depth c, Circuit.multi_qubit_count c, Circuit.gate_count c)
  in
  let better a b = cost a <= cost b in
  match strategy with
  | Peephole_only -> finish Peephole_only (Peephole.optimize ~aggressive:true c) false
  | Graph -> (
      match graph_pipeline c with
      | exception Extract.Extraction_failed msg -> fallback msg
      | exception Invalid_argument msg -> fallback msg
      | optimized ->
          let peephole = Peephole.optimize ~aggressive:true c in
          if not (better optimized peephole) then
            finish Peephole_only peephole false
          else if Circuit.n_qubits c <= verify_qubits then
            if Circuit.equal_unitary ~eps:1e-6 c optimized then
              finish Graph optimized true
            else fallback "verification mismatch"
          else finish Graph optimized false)

(* --- stage report ------------------------------------------------------- *)

(* Structured counters of one graph-stage run, for the pass pipeline's
   trace sink (lib/epoc). *)
let counters (r : report) =
  [
    ("input_depth", r.input_depth);
    ("output_depth", r.output_depth);
    ("input_gates", r.input_gates);
    ("output_gates", r.output_gates);
    ("used_graph", if r.used = Graph then 1 else 0);
    ("verified", if r.verified then 1 else 0);
  ]
