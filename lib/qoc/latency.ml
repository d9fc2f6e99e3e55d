(* Minimal pulse duration search (the paper's binary search on latency).

   For a target unitary, find the smallest number of GRAPE slots whose
   optimized pulse reaches the fidelity target, assuming reachability is
   monotone in duration (quantum speed limit).  The search first doubles an
   upper bracket from a lower bound, then bisects at a configurable slot
   granularity.

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

(* --- batched search ------------------------------------------------------ *)

type search_job = {
  sj_hw : Hardware.t;
  sj_target : Mat.t;
  sj_options : options;
  sj_initial_guess : int option;
  sj_grape : Grape.options; (* sj_options.grape with ?init folded in *)
  sj_rng : Random.State.t option;
  sj_budget : Epoc_budget.t;
  sj_fault : Epoc_fault.spec option;
  sj_site : string;
  sj_attempt : int;
}

let search_job ?(options = default_options) ?initial_guess ?init ?rng
    ?(budget = Epoc_budget.unlimited) ?fault ?(site = "grape") ?(attempt = 0)
    (hw : Hardware.t) (target : Mat.t) =
  (* [?init] (cached near-neighbor amplitudes) takes precedence over any
     [init] in the provided grape options; Grape resamples it to each
     attempt's slot count. *)
  let sj_grape =
    match init with
    | None -> options.grape
    | Some amps -> { options.grape with Grape.init = Some amps }
  in
  {
    sj_hw = hw;
    sj_target = target;
    sj_options = options;
    sj_initial_guess = initial_guess;
    sj_grape;
    sj_rng = rng;
    sj_budget = budget;
    sj_fault = fault;
    sj_site = site;
    sj_attempt = attempt;
  }

(* The bracket-then-bisect recursion of the solo search, unrolled into a
   state machine so many searches can advance together: each round takes
   exactly one GRAPE attempt per still-searching job, and all of a
   round's attempts go to [Grape.optimize_batch] as one batch.  Each
   job's attempt sequence (slot counts, RNG draws, stopping) is exactly
   the solo search's, so results are bit-identical to running the
   searches one by one — batching only co-schedules them. *)
type sm =
  | Probe_start of int (* first attempt at the seeded guess *)
  | Probe_up of int (* bracket_up: doubling a failing lower bound *)
  | Probe_down of int * Grape.result (* bracket_down: hi succeeded *)
  | Probe_bisect of int * int * Grape.result (* (lo, hi] with best at hi *)
  | Finished of (search_result, Epoc_error.t) result

type search_state = {
  ss_job : search_job;
  mutable ss_sm : sm;
  mutable ss_runs : int;
  mutable ss_attempts : attempt list; (* newest first *)
}

let ss_min_slots ss = max 1 ss.ss_job.sj_options.min_slots

let ss_finish_found ss slots (result : Grape.result) =
  let hw = ss.ss_job.sj_hw in
  Log.debug (fun m ->
      m "duration search: converged at %d slots (%.1f ns) in %d runs" slots
        (float_of_int slots *. hw.Hardware.dt)
        ss.ss_runs);
  ss.ss_sm <-
    Finished
      (Ok
         {
           slots;
           duration = float_of_int slots *. hw.Hardware.dt;
           fidelity = result.Grape.fidelity;
           result;
           grape_runs = ss.ss_runs;
           attempts = List.rev ss.ss_attempts;
         })

(* Enter the bisection over (lo, hi] (hi succeeded with [best]); resolves
   immediately when the interval is already within granularity. *)
let ss_enter_bisect ss lo hi best =
  if hi - lo <= ss.ss_job.sj_options.granularity then ss_finish_found ss hi best
  else ss.ss_sm <- Probe_bisect (lo, hi, best)

(* Slot count of the state's pending attempt, if it needs one this
   round.  [Probe_up] past [max_slots] resolves here (no bracket). *)
let rec ss_pending ss =
  match ss.ss_sm with
  | Finished _ -> None
  | Probe_start s -> Some s
  | Probe_up lo ->
      if lo > ss.ss_job.sj_options.max_slots then begin
        Log.debug (fun m ->
            m "duration search: no bracket up to %d slots (%d runs)"
              ss.ss_job.sj_options.max_slots ss.ss_runs);
        ss.ss_sm <-
          Finished
            (Error
               (Epoc_error.Duration_unreachable
                  {
                    site = ss.ss_job.sj_site;
                    max_slots = ss.ss_job.sj_options.max_slots;
                  }));
        None
      end
      else Some lo
  | Probe_down (hi, r_hi) ->
      let lo = hi / 2 in
      if lo < ss_min_slots ss then begin
        ss_enter_bisect ss (ss_min_slots ss - 1) hi r_hi;
        ss_pending_resolved ss
      end
      else Some lo
  | Probe_bisect (lo, hi, _) -> Some ((lo + hi) / 2)

(* After an in-place transition, re-ask; [Probe_down] can collapse
   straight into a resolved bisection. *)
and ss_pending_resolved ss =
  match ss.ss_sm with Finished _ -> None | _ -> ss_pending ss

(* Advance the state with the GRAPE result of its pending attempt at
   [slots] — the transitions mirror the solo recursion branch for
   branch. *)
let ss_step ss slots (res : (Grape.result, Epoc_error.t) result) =
  match res with
  | Error e -> ss.ss_sm <- Finished (Error e)
  | Ok r -> (
      ss.ss_runs <- ss.ss_runs + 1;
      ss.ss_attempts <-
        {
          att_slots = slots;
          att_iterations = r.Grape.iterations;
          att_fidelity = r.Grape.fidelity;
          att_stop = r.Grape.stop;
        }
        :: ss.ss_attempts;
      Log.debug (fun m ->
          m "duration search: %d slots -> F=%.6f (%d iters, %s)" slots
            r.Grape.fidelity r.Grape.iterations
            (Grape.stop_reason_name r.Grape.stop));
      let ok = r.Grape.fidelity >= ss.ss_job.sj_grape.Grape.fidelity_target in
      match ss.ss_sm with
      | Finished _ -> ()
      | Probe_start s ->
          if ok then ss.ss_sm <- Probe_down (s, r)
          else ss.ss_sm <- Probe_up (s * 2)
      | Probe_up hi ->
          if ok then ss_enter_bisect ss (hi / 2) hi r
          else ss.ss_sm <- Probe_up (hi * 2)
      | Probe_down (hi, r_hi) ->
          let lo = hi / 2 in
          if ok then ss.ss_sm <- Probe_down (lo, r)
          else ss_enter_bisect ss lo hi r_hi
      | Probe_bisect (lo, hi, best) ->
          let mid = (lo + hi) / 2 in
          if ok then ss_enter_bisect ss lo mid r
          else ss_enter_bisect ss mid hi best)

(* Run all searches to completion, one GRAPE batch per round.
   All jobs must share a Hilbert-space dimension (they come from one
   hardware group); [pool]/[workspace] are execution-only knobs threaded
   into every batched solve. *)
let find_min_duration_batch ?pool ?workspace (jobs : search_job array) =
  let states =
    Array.map
      (fun sj ->
        let start =
          max
            (max 1 sj.sj_options.min_slots)
            (Option.value ~default:(max 1 sj.sj_options.min_slots)
               sj.sj_initial_guess)
        in
        { ss_job = sj; ss_sm = Probe_start start; ss_runs = 0; ss_attempts = [] })
      jobs
  in
  let ws =
    match workspace with Some w -> w | None -> Grape.workspace ()
  in
  let continue_ = ref (Array.length states > 0) in
  while !continue_ do
    (* collect this round's pending attempts (state index, slot count) *)
    let pending = ref [] in
    Array.iteri
      (fun i ss ->
        match ss_pending ss with
        | Some slots -> pending := (i, slots) :: !pending
        | None -> ())
      states;
    let pending = Array.of_list (List.rev !pending) in
    if Array.length pending = 0 then continue_ := false
    else begin
      let bjs =
        Array.map
          (fun (i, slots) ->
            let sj = states.(i).ss_job in
            let rng =
              match sj.sj_rng with
              | Some r -> r
              | None -> Random.State.make [| 29; slots |]
            in
            Grape.batch_job ~options:sj.sj_grape ~rng ~budget:sj.sj_budget
              ?fault:sj.sj_fault ~site:sj.sj_site ~attempt:sj.sj_attempt
              sj.sj_hw ~target:sj.sj_target ~slots)
          pending
      in
      let results = Grape.optimize_batch ?pool ~workspace:ws bjs in
      Array.iteri
        (fun p (i, slots) -> ss_step states.(i) slots results.(p))
        pending
    end
  done;
  Array.map
    (fun ss ->
      match ss.ss_sm with
      | Finished r -> r
      | _ -> assert false (* loop exits only with all states finished *))
    states

(* Result-returning entry point: a batch of one.  A search that
   brackets up to [max_slots] without reaching the fidelity target maps
   to [Duration_unreachable]; solver and deadline failures pass through
   typed. *)
let find_min_duration_r ?options ?initial_guess ?init ?rng ?budget ?fault
    ?site ?attempt ?pool ?workspace hw target =
  let sj =
    search_job ?options ?initial_guess ?init ?rng ?budget ?fault ?site
      ?attempt hw target
  in
  (find_min_duration_batch ?pool ?workspace [| sj |]).(0)

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
  let n = Circuit.n_qubits vug_circuit in
  let line = Array.make n 0.0 in
  List.iter
    (fun (op : Circuit.op) ->
      let dur =
        match op.Circuit.gate with
        | Gate.RZ _ | Gate.Phase _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T
        | Gate.Tdg ->
            0.0 (* virtual Z: frame update, free *)
        | g when Gate.arity g = 1 -> t1
        | Gate.CX | Gate.CZ -> t2
        | g -> t2 *. float_of_int (Gate.arity g - 1)
      in
      let start = List.fold_left (fun acc q -> Float.max acc line.(q)) 0.0 op.Circuit.qubits in
      List.iter (fun q -> line.(q) <- start +. dur) op.Circuit.qubits)
    (Circuit.ops vug_circuit);
  Array.fold_left Float.max 0.0 line

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
