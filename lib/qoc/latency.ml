(* Minimal pulse duration search (the paper's binary search on latency).

   For a target unitary, find the smallest number of GRAPE slots whose
   optimized pulse reaches the fidelity target, assuming reachability is
   monotone in duration (quantum speed limit).  The search brackets from a
   seeded guess — doubling a failing bound up, or halving a succeeding one
   down — then bisects at a configurable slot granularity, one GRAPE
   attempt at a time.

   [estimate] is the calibrated analytic shortcut used for very wide
   sweeps: it prices a unitary by the CNOT count and single-qubit load of
   its VUG decomposition under the hardware's reference gate times.  Every
   experiment states which mode produced its numbers. *)

open Epoc_linalg
open Epoc_circuit

module Log = (val Logs.src_log Grape.log_src : Logs.LOG)

(* Telemetry of one GRAPE optimization inside the duration search — kept
   lightweight (no matrices) so searches can report every attempt. *)
type attempt = {
  att_slots : int;
  att_iterations : int;
  att_fidelity : float;
  att_stop : Grape.stop_reason;
}

type search_result = {
  slots : int;
  duration : float; (* ns *)
  fidelity : float;
  result : Grape.result;
  grape_runs : int; (* how many GRAPE optimizations the search used *)
  attempts : attempt list; (* per-run telemetry, in run order *)
}

type options = {
  grape : Grape.options;
  granularity : int; (* slot quantum for bisection *)
  max_slots : int;
  min_slots : int;
}

let default_options =
  { grape = Grape.default_options; granularity = 4; max_slots = 1024; min_slots = 2 }

(* --- duration search ------------------------------------------------------- *)

let ( let* ) = Result.bind

(* Bracket then bisect.  The first attempt runs at the seeded guess; a
   failing bound doubles until an attempt succeeds (past [max_slots]
   the search gives up), a succeeding first attempt halves until one
   fails or the bound drops below [min_slots], and the bracket (lo, hi]
   — hi succeeded — is then bisected down to [granularity].  The
   attempt at [slots] draws from [rng] when given, else from its own
   [Random.State.make [|29; slots|]]; every attempt reuses one
   workspace.  A typed GRAPE error ends the search. *)
let find_min_duration_r ?(options = default_options) ?initial_guess ?init ?rng
    ?(budget = Epoc_budget.unlimited) ?fault ?(site = "grape") ?(attempt = 0)
    ?pool ?workspace (hw : Hardware.t) (target : Mat.t) =
  (* [?init] (cached near-neighbor amplitudes) takes precedence over any
     [init] in the provided grape options; Grape resamples it to each
     attempt's slot count. *)
  let grape =
    match init with
    | None -> options.grape
    | Some amps -> { options.grape with Grape.init = Some amps }
  in
  let workspace =
    match workspace with Some w -> w | None -> Grape.workspace ()
  in
  let min_slots = max 1 options.min_slots in
  let runs = ref 0 and attempts = ref [] in
  (* One GRAPE attempt: whether it reached the target, and its result. *)
  let run slots =
    let rng =
      match rng with Some r -> r | None -> Random.State.make [| 29; slots |]
    in
    let* r =
      Grape.optimize_r ~options:grape ~rng ~budget ?fault ~site ~attempt ?pool
        ~workspace hw ~target ~slots
    in
    incr runs;
    attempts :=
      {
        att_slots = slots;
        att_iterations = r.Grape.iterations;
        att_fidelity = r.Grape.fidelity;
        att_stop = r.Grape.stop;
      }
      :: !attempts;
    Log.debug (fun m ->
        m "duration search: %d slots -> F=%.6f (%d iters, %s)" slots
          r.Grape.fidelity r.Grape.iterations
          (Grape.stop_reason_name r.Grape.stop));
    Ok (r.Grape.fidelity >= grape.Grape.fidelity_target, r)
  in
  let found slots (result : Grape.result) =
    let duration = float_of_int slots *. hw.Hardware.dt in
    Log.debug (fun m ->
        m "duration search: converged at %d slots (%.1f ns) in %d runs" slots
          duration !runs);
    Ok
      {
        slots;
        duration;
        fidelity = result.Grape.fidelity;
        result;
        grape_runs = !runs;
        attempts = List.rev !attempts;
      }
  in
  (* (lo, hi] with [best] the result at hi *)
  let rec bisect lo hi best =
    if hi - lo <= options.granularity then found hi best
    else
      let mid = (lo + hi) / 2 in
      let* ok, r = run mid in
      if ok then bisect lo mid r else bisect mid hi best
  in
  let rec double lo =
    if lo > options.max_slots then begin
      Log.debug (fun m ->
          m "duration search: no bracket up to %d slots (%d runs)"
            options.max_slots !runs);
      Error
        (Epoc_error.Duration_unreachable { site; max_slots = options.max_slots })
    end
    else
      let* ok, r = run lo in
      if ok then bisect (lo / 2) lo r else double (lo * 2)
  in
  let rec halve hi r_hi =
    let lo = hi / 2 in
    if lo < min_slots then bisect (min_slots - 1) hi r_hi
    else
      let* ok, r = run lo in
      if ok then halve lo r else bisect lo hi r_hi
  in
  let start = max min_slots (Option.value ~default:min_slots initial_guess) in
  let* ok, r = run start in
  if ok then halve start r else double (start * 2)

(* --- analytic estimator -------------------------------------------------- *)

type estimate = { est_duration : float; est_fidelity : float }

(* Price a unitary via its VUG+CNOT realization: CNOT layers cost the
   entangling reference time, single-qubit layers the 1q reference time.
   QOC overlaps single-qubit dressing with entangling evolution; the
   packing factor models that overlap and grows with block width.  It is
   calibrated against GRAPE duration searches on this repository's default
   hardware model: X 10/10 ns (k=1), CX 56/60 ns (k=2), GHZ3 96/130 ns
   (k=3). *)
let packing_factor k = Float.max 0.6 (1.0 -. (0.13 *. float_of_int (k - 1)))

let raw_critical_path (hw : Hardware.t) (vug_circuit : Circuit.t) =
  let t1 = Hardware.single_qubit_gate_time hw in
  let t2 = Hardware.entangling_gate_time hw in
  snd
    (Lines.asap ~n:(Circuit.n_qubits vug_circuit)
       ~qubits:(fun (op : Circuit.op) -> op.Circuit.qubits)
       ~duration:(fun (op : Circuit.op) ->
         match op.Circuit.gate with
         | g when Gate.is_virtual g -> 0.0 (* virtual Z: frame update, free *)
         | g when Gate.arity g = 1 -> t1
         | Gate.CX | Gate.CZ -> t2
         | g -> t2 *. float_of_int (Gate.arity g - 1))
       (Circuit.ops vug_circuit))

(* Rotation angle of a single-qubit unitary (global phase ignored):
   |tr U| = 2 |cos(theta/2)|. *)
let rotation_angle (u : Mat.t) =
  let t = Cx.norm (Mat.trace u) /. float_of_int (Mat.rows u) in
  2.0 *. Float.acos (Float.min 1.0 t)

(* Local dressing overhead for entangling pulses, calibrated against GRAPE
   duration searches (CX: 56 ns measured vs pi/(2J) = 50 ns non-local
   content). *)
let local_overhead = 6.0

let estimate ?unitary (hw : Hardware.t) (vug_circuit : Circuit.t) =
  let k = Circuit.n_qubits vug_circuit in
  let u =
    match unitary with
    | Some u -> Some u
    | None -> if k <= 2 then Some (Circuit.unitary vug_circuit) else None
  in
  let est_duration =
    match (k, u) with
    | 1, Some u when Mat.is_diagonal ~eps:1e-9 u ->
        0.0 (* virtual Z: frame update *)
    | 1, Some u ->
        (* single-qubit pulse: quantum speed limit theta / drive_limit *)
        rotation_angle u /. hw.Hardware.drive_limit
    | 2, Some u ->
        (* two-qubit pulse: Weyl interaction content over the coupling
           rate, with local rotations riding along the entangling
           evolution *)
        let c_sum = Weyl.interaction_content u in
        let non_local =
          if c_sum > 1e-9 then
            (c_sum *. 2.0 /. hw.Hardware.coupling_strength) +. local_overhead
          else 0.0
        in
        let local =
          (* purely local content still needs its own rotation time *)
          rotation_angle u /. hw.Hardware.drive_limit
        in
        Float.max non_local local
    | _ ->
        (* wider blocks: packed critical path heuristic *)
        packing_factor k *. raw_critical_path hw vug_circuit
  in
  {
    est_duration = Float.max hw.Hardware.dt est_duration;
    est_fidelity = 0.999;
  }

(* Slot-count seed for [find_min_duration_r] derived from the estimate. *)
let guess_slots ?unitary (hw : Hardware.t) (vug_circuit : Circuit.t) =
  let e = estimate ?unitary hw vug_circuit in
  max 2 (int_of_float (Float.ceil (e.est_duration /. hw.Hardware.dt)))

(* --- stage report ------------------------------------------------------- *)

(* Structured summary of a batch of resolved pulses (QOC stage), for the
   pass pipeline's trace sink (lib/epoc): how many pulses were needed,
   how many required a fresh duration search / estimate (the rest came
   from the pulse library), and the summed pulse time in whole ns. *)
type stage_report = {
  pulses : int;
  computed : int;
  total_duration_ns : float;
}

let stage_report ~computed (resolved : (float * float) list) =
  {
    pulses = List.length resolved;
    computed;
    total_duration_ns = List.fold_left (fun acc (d, _) -> acc +. d) 0.0 resolved;
  }

let counters (r : stage_report) =
  [
    ("pulses", r.pulses);
    ("computed", r.computed);
    ("duration_ns", int_of_float (Float.round r.total_duration_ns));
  ]
