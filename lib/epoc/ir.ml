(* The compilation IR threaded through the pass pipeline.

   One [t] carries a single candidate representation of the input circuit
   through the stages of paper Figure 3: the current gate-level circuit,
   then the partition blocks, the synthesized VUG circuit, the regroup
   candidates with their pulse jobs, and finally the chosen schedule.
   Passes are functions [t -> t] that fill in (or rewrite) the fields
   their stage owns; fields a flow never uses keep their empty defaults,
   which is how the gate-based baseline runs through the same driver with
   a different pass list. *)

open Epoc_linalg
open Epoc_circuit
open Epoc_partition
open Epoc_synthesis
open Epoc_pulse

(* Outcome of one fresh pulse computation (a phase-2 representative):
   the solved (or degraded) values plus the resilience bookkeeping —
   how many retries the solve burned and whether it exhausted them and
   fell back to per-gate pulse playback. *)
type job_result = {
  jr_duration : float; (* ns *)
  jr_fidelity : float;
  jr_pulse : Epoc_qoc.Grape.pulse option;
  jr_retries : int; (* retry attempts used (0 = first try worked) *)
  jr_fallback : bool; (* true = degraded to per-gate pulse playback *)
  jr_error : string option;
      (* the terminal error of a degraded block or a failed duration search *)
}

(* One pulse to generate: a non-virtual group of the regrouped circuit.
   Jobs are shared between the grouping that owns them and the flat batch
   that resolves them, so resolution is recorded in place. *)
type pulse_job = {
  jid : int; (* batch-order id, names the solve site ("block<jid>") *)
  ju : Mat.t; (* group unitary *)
  jk : int; (* group qubit count *)
  jlocal : Circuit.t; (* group circuit on local qubits *)
  jhw : Epoc_qoc.Hardware.t; (* block model of the group's global qubits *)
  jcontext : string;
      (* reuse context: [jhw]'s context, "estimate;"-prefixed in estimate
         mode *)
  jcanon : Mat.t; (* [ju] under the library's phase convention *)
  jkey : Digest.t; (* [Library.key ~context:jcontext jcanon] *)
  mutable resolved : (float * float) option; (* (duration, fidelity) *)
  mutable batch_rep : pulse_job option; (* earlier in-batch equivalent *)
  mutable jinit : float array array option;
  (* warm-start amplitudes from a near-miss of the persistent store *)
  mutable computed : job_result option;
  (* phase-2 result, reps only *)
  mutable jfallback : bool;
  (* this job plays gate pulses (its own computation degraded, or it
     aliases a representative that did) *)
  mutable jretries : int;
  (* retry attempts burned by this job's own computation (reps only) *)
  mutable jpulse : Epoc_qoc.Grape.pulse option;
  (* the resolved control amplitudes (Grape mode), stashed at
     resolution time so the schedule can attach waveforms to its
     instructions without re-probing the library (an extra probe would
     mutate the hit/miss counters) *)
}

(* A regroup candidate: every group paired with its pulse job, or [None]
   for virtual (diagonal single-qubit) groups that cost nothing. *)
type grouping = (Partition.block * pulse_job option) list

type t = {
  name : string;
  n : int; (* qubit count *)
  input : Circuit.t; (* the untouched input circuit *)
  input_depth : int;
  circuit : Circuit.t; (* current gate-level circuit *)
  zx_used_graph : bool; (* this candidate came from ZX extraction *)
  opt_depth : int; (* depth after graph optimization, before reorder *)
  blocks : Partition.block list; (* partition stage output *)
  synth : (Partition.block * Synthesis.block_result) list;
  synth_fresh : (Circuit.t * Synthesis.block_result) list;
  (* freshly synthesized (not replayed) results with their blocks'
     local circuits, in block order; only populated when a synthesis
     store is attached.  The driver records these into the store at
     pipeline end — candidate compilation itself never writes shared
     state. *)
  vug_circuit : Circuit.t; (* synthesis stage output, reassembled *)
  groupings : grouping list; (* regroup sweep candidates *)
  pulse_jobs : int; (* jobs resolved by the pulse stage *)
  pulse_computed : int; (* jobs that needed a fresh computation *)
  instructions : Schedule.instruction list; (* gate-based flow only *)
  schedule : Schedule.t option; (* scheduling stage output *)
  degraded_blocks : int;
  (* distinct pulse computations in the chosen schedule that exhausted
     their retries and play gate pulses instead of an optimized pulse *)
  pulse_retries : int;
  (* retry attempts burned by the chosen schedule's computations *)
}

let of_circuit ~name (circuit : Circuit.t) =
  let n = Circuit.n_qubits circuit in
  {
    name;
    n;
    input = circuit;
    input_depth = Circuit.depth circuit;
    circuit;
    zx_used_graph = false;
    opt_depth = Circuit.depth circuit;
    blocks = [];
    synth = [];
    synth_fresh = [];
    vug_circuit = Circuit.empty n;
    groupings = [];
    pulse_jobs = 0;
    pulse_computed = 0;
    instructions = [];
    schedule = None;
    degraded_blocks = 0;
    pulse_retries = 0;
  }

(* Candidate entry point: a graph-stage output adopted as the current
   circuit, with the pre-reorder depth recorded for [stage_stats]. *)
let with_candidate ir (circuit : Circuit.t) ~zx_used_graph =
  { ir with circuit; zx_used_graph; opt_depth = Circuit.depth circuit }

let schedule_exn ir =
  match ir.schedule with
  | Some s -> s
  | None -> invalid_arg "Ir.schedule_exn: no scheduling pass ran"

let synthesized_blocks ir =
  List.length
    (List.filter (fun (_, r) -> r.Synthesis.source = Synthesis.Synthesized) ir.synth)

(* One constructor for the library entry and the store record. *)
let solved_entry (j : pulse_job) (r : job_result) =
  {
    Library.unitary = j.jcanon;
    duration = r.jr_duration;
    fidelity = r.jr_fidelity;
    pulse = r.jr_pulse;
    context = j.jcontext;
  }

(* Only representatives carry [computed]. *)
let fresh_pulses ir =
  List.concat_map
    (List.filter_map (fun (_, job) ->
         match job with
         | Some ({ computed = Some r; _ } as j) when not r.jr_fallback ->
             Some (j.jkey, solved_entry j r)
         | _ -> None))
    ir.groupings
