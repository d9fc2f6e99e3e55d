(* Comparison flows for the evaluation, all running through the shared
   pass driver ([Pipeline.compile_flow]) with their own pass lists, so the
   shared logic — partitioning, pulse-library interaction, ASAP
   scheduling — exists exactly once.

   - [gate_based]: the traditional workflow — every gate is played as its
     own calibrated pulse (RZ-family gates are virtual/free, as on IBM
     hardware); latency is the ASAP critical path of per-gate pulses.
     Pass list: lower -> gate-pulses -> schedule.
   - [accqoc_like]: AccQOC (Cheng et al., ISCA'20) reimplemented from its
     description — uniform two-qubit sub-circuits of bounded depth, QOC per
     sub-circuit with a pulse library; no ZX, no synthesis, and
     phase-*sensitive* library matching.  (AccQOC's MST-ordered library
     construction only affects compile time, which we account for by
     constructing the library in similarity order.)  Runs the EPOC pass
     list under a restricted config.
   - [paqoc_like]: PAQOC (Chen et al., HPCA'23) approximated as
     program-aware grouping: frequent gate-pair patterns are mined, and
     with three or more of them the program is grouped with a larger
     per-block budget.  No ZX, no synthesis. *)

open Epoc_circuit
open Epoc_partition
open Epoc_pulse

(* --- gate-based ----------------------------------------------------------- *)

(* Calibrated per-gate pulse table, shared with the graceful-degradation
   fallback of the pulse stage (one table, one pricing). *)
let gate_pulse = Stages.gate_pulse

(* Lower exotic gates to the calibrated basis.  The lowered circuit is
   also recorded as the flow's "VUG circuit" so the generic stage stats
   report its single-qubit/CX composition. *)
let lower_pass =
  Pass.make "lower"
    ~counters:(fun _ (ir : Ir.t) ->
      [ ("gates", Circuit.gate_count ir.Ir.circuit) ])
    (fun _ctx ir ->
      let lowered = Lower.to_zx_basis ir.Ir.circuit in
      { ir with Ir.circuit = lowered; vug_circuit = lowered })

(* One calibrated pulse per gate; virtual gates are dropped.  Gates are
   priced on the two-qubit default model: the reference gate times do
   not depend on the model's width, so a circuit-wide Hamiltonian would
   only cost 2^n memory. *)
let gate_pulses_pass =
  Pass.make "gate-pulses"
    ~counters:(fun _ (ir : Ir.t) ->
      [ ("instructions", List.length ir.Ir.instructions) ])
    (fun ctx ir ->
      let config = ctx.Pass.config in
      let hw =
        Epoc_qoc.Hardware.make ~dt:config.Config.dt
          ~t_coherence:config.Config.t_coherence 2
      in
      let instructions =
        List.filter_map
          (fun (op : Circuit.op) ->
            let duration, fidelity = gate_pulse hw op.Circuit.gate in
            if duration = 0.0 && fidelity = 1.0 then None
            else
              Some
                {
                  Schedule.qubits = op.Circuit.qubits;
                  duration;
                  fidelity;
                  label = Gate.name op.Circuit.gate;
                  pulse = None;
                })
          (Circuit.ops ir.Ir.circuit)
      in
      Epoc_obs.Metrics.incr ~by:(List.length instructions) ctx.Pass.metrics
        "gate.pulses";
      { ir with Ir.instructions })

(* ASAP placement of the per-gate pulses in program order. *)
let schedule_instructions_pass =
  Pass.make "schedule"
    ~counters:(fun _ (ir : Ir.t) -> Schedule.counters (Ir.schedule_exn ir))
    (fun _ctx ir ->
      { ir with Ir.schedule = Some (Schedule.schedule ~n:ir.Ir.n ir.Ir.instructions) })

let gate_flow =
  {
    Pipeline.graph =
      (fun _ctx circuit -> ([ (circuit, false) ], [ ("candidates", 1) ]));
    passes =
      (fun _config ->
        [ lower_pass; gate_pulses_pass; schedule_instructions_pass ]);
  }

(* Session entry point: the baseline is just the shared driver over
   [gate_flow], under the session's own config. *)
let compile_gate_based session (circuit : Circuit.t) =
  Pipeline.compile_flow session gate_flow circuit

(* --- AccQOC-like ------------------------------------------------------------ *)

let accqoc_config (base : Config.t) =
  {
    base with
    Config.use_zx = false;
    use_synthesis = false;
    regroup = true;
    (* uniform 2-qubit sub-circuits of small depth *)
    partition = { Partition.qubit_limit = 2; op_limit = 4 };
    regroup_partition = { Partition.qubit_limit = 2; op_limit = 4 };
    regroup_widths = [ 2 ];
    commutation_reorder = false;
    match_global_phase = false;
  }

(* Session entry point: the caller's session under the AccQOC config
   transform ([Engine.with_config] re-derives the library, budget and
   fault spec for the restricted config). *)
let compile_accqoc_like session circuit =
  let session =
    Engine.with_config (accqoc_config (Engine.session_config session)) session
  in
  Pipeline.compile session circuit

(* --- PAQOC-like -------------------------------------------------------------- *)

(* Frequent-pattern mining: count consecutive gate pairs sharing a qubit
   by (gate names, same qubits) and keep those seen at least twice,
   PAQOC's "program-aware basis gates".  Only their number is used: it
   picks the grouping budget in [paqoc_config_for]. *)
let mine_patterns (circuit : Circuit.t) =
  let table = Hashtbl.create 32 in
  let ops = Array.of_list (Circuit.ops circuit) in
  let n = Array.length ops in
  for i = 0 to n - 2 do
    let a = ops.(i) and b = ops.(i + 1) in
    let shared = List.exists (fun q -> List.mem q b.Circuit.qubits) a.Circuit.qubits in
    if shared then begin
      let key =
        (Gate.name a.Circuit.gate, Gate.name b.Circuit.gate,
         a.Circuit.qubits = b.Circuit.qubits)
      in
      Hashtbl.replace table key
        (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
    end
  done;
  List.filter (fun (_, c) -> c >= 2)
    (Hashtbl.fold (fun k c acc -> (k, c) :: acc) table [])

let paqoc_config (base : Config.t) =
  {
    base with
    Config.use_zx = false;
    use_synthesis = false;
    regroup = true;
    partition = { Partition.qubit_limit = 2; op_limit = 6 };
    regroup_partition = { Partition.qubit_limit = 2; op_limit = 6 };
    regroup_widths = [ 2 ];
    commutation_reorder = false;
    match_global_phase = false;
  }

(* The PAQOC config for [circuit]: pattern mining informs the grouping
   budget — with frequent patterns present, PAQOC invests in deeper
   program-aware groups. *)
let paqoc_config_for config circuit =
  let patterns = mine_patterns circuit in
  let cfg = paqoc_config config in
  if List.length patterns >= 3 then
    { cfg with Config.partition = { Partition.qubit_limit = 2; op_limit = 8 };
               regroup_partition = { Partition.qubit_limit = 2; op_limit = 8 } }
  else cfg

(* Session entry point. *)
let compile_paqoc_like session circuit =
  let cfg = paqoc_config_for (Engine.session_config session) circuit in
  Pipeline.compile (Engine.with_config cfg session) circuit

(* --- flow table ----------------------------------------------------------- *)

(* Every compilation flow by name, EPOC first: the CLI's [--flow], the
   serve protocol's ["flow"] field and the tests resolve names here. *)
let flows =
  [
    ("epoc", Pipeline.compile);
    ("gate", compile_gate_based);
    ("accqoc", compile_accqoc_like);
    ("paqoc", compile_paqoc_like);
  ]
