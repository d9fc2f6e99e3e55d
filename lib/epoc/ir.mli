(** The compilation IR threaded through the pass pipeline.

    One {!t} carries a single candidate representation of the input
    circuit through the stages of paper Figure 3.  Passes are functions
    [t -> t] that fill in (or rewrite) the fields their stage owns;
    fields a flow never uses keep their empty defaults, which is how the
    gate-based baseline runs through the same driver with a different
    pass list.

    The records are concrete — passes live in several modules
    ([Stages], [Baselines]) and update fields directly; the mutable
    [pulse_job] fields are the in-place resolution protocol of
    [Stages.resolve_pulses] and must only be written in the phases
    documented there. *)

open Epoc_linalg
open Epoc_circuit
open Epoc_partition
open Epoc_synthesis
open Epoc_pulse

(** Outcome of one fresh pulse computation (a phase-2 representative):
    the solved (or degraded) values plus the resilience bookkeeping. *)
type job_result = {
  jr_duration : float;  (** ns *)
  jr_fidelity : float;
  jr_pulse : Epoc_qoc.Grape.pulse option;
  jr_retries : int;  (** retry attempts used (0 = first try worked) *)
  jr_fallback : bool;  (** true = degraded to per-gate pulse playback *)
  jr_error : string option;
      (** the terminal error of a degraded block or a failed duration search *)
}

(** One pulse to generate: a non-virtual group of the regrouped circuit.
    Jobs are shared between the grouping that owns them and the flat
    batch that resolves them, so resolution is recorded in place. *)
type pulse_job = {
  jid : int;  (** batch-order id, names the solve site ([block<jid>]) *)
  ju : Mat.t;  (** group unitary *)
  jk : int;  (** group qubit count *)
  jlocal : Circuit.t;  (** group circuit on local qubits *)
  jhw : Epoc_qoc.Hardware.t;
      (** the block hardware model of the group's global qubits *)
  jcontext : string;
      (** the reuse context scoping every library and store probe: the
          [jhw] context, with ["estimate;"] in front in estimate mode *)
  jcanon : Mat.t;  (** [ju] {!Library.canonicalize}d *)
  jkey : Digest.t;
      (** the library bucket, [Library.key ~context:jcontext jcanon];
          [jhw] to [jkey] are computed once, when the job is built *)
  mutable resolved : (float * float) option;  (** (duration, fidelity) *)
  mutable batch_rep : pulse_job option;  (** earlier in-batch equivalent *)
  mutable jinit : float array array option;
      (** warm-start amplitudes from a near-miss of the persistent store *)
  mutable computed : job_result option;  (** phase-2 result, reps only *)
  mutable jfallback : bool;
      (** this job plays gate pulses (its own computation degraded, or
          it aliases a representative that did) *)
  mutable jretries : int;
      (** retry attempts burned by this job's own computation (reps
          only) *)
  mutable jpulse : Epoc_qoc.Grape.pulse option;
      (** the resolved control amplitudes (Grape mode), stashed at
          resolution time so the schedule can attach waveforms to its
          instructions without re-probing the library (an extra probe
          would mutate the hit/miss counters) *)
}

(** A regroup candidate: every group paired with its pulse job, or [None]
    for virtual (diagonal single-qubit) groups that cost nothing. *)
type grouping = (Partition.block * pulse_job option) list

type t = {
  name : string;
  n : int;  (** qubit count *)
  input : Circuit.t;  (** the untouched input circuit *)
  input_depth : int;
  circuit : Circuit.t;  (** current gate-level circuit *)
  zx_used_graph : bool;  (** this candidate came from ZX extraction *)
  opt_depth : int;  (** depth after graph optimization, before reorder *)
  blocks : Partition.block list;  (** partition stage output *)
  synth : (Partition.block * Synthesis.block_result) list;
  synth_fresh : (Circuit.t * Synthesis.block_result) list;
      (** freshly synthesized (not replayed) results with their blocks'
          local circuits, in block order; populated only when a synthesis
          store is attached.  The driver records these into the store at
          pipeline end — candidate compilation never writes shared
          state. *)
  vug_circuit : Circuit.t;  (** synthesis stage output, reassembled *)
  groupings : grouping list;  (** regroup sweep candidates *)
  pulse_jobs : int;  (** jobs resolved by the pulse stage *)
  pulse_computed : int;  (** jobs that needed a fresh computation *)
  instructions : Schedule.instruction list;  (** gate-based flow only *)
  schedule : Schedule.t option;  (** scheduling stage output *)
  degraded_blocks : int;
      (** distinct pulse computations in the chosen schedule that
          exhausted their retries and play gate pulses instead of an
          optimized pulse *)
  pulse_retries : int;
      (** retry attempts burned by the chosen schedule's computations *)
}

(** A fresh IR over [circuit] with every stage field at its empty
    default. *)
val of_circuit : name:string -> Circuit.t -> t

(** Candidate entry point: a graph-stage output adopted as the current
    circuit, with the pre-reorder depth recorded for the stage stats. *)
val with_candidate : t -> Circuit.t -> zx_used_graph:bool -> t

(** The schedule, or [Invalid_argument] when no scheduling pass ran. *)
val schedule_exn : t -> Schedule.t

(** Blocks where the search beat the direct VUG form. *)
val synthesized_blocks : t -> int

(** The entry of a representative's clean result, which phase 3 of
    [Stages.resolve_pulses] adds to the library under [jkey]. *)
val solved_entry : pulse_job -> job_result -> Library.entry

(** What this candidate solved, for the pulse store: [(jkey,
    solved_entry)] of each representative that did not degrade, in job
    order.  Library and store hits and aliases solved nothing. *)
val fresh_pulses : t -> (Digest.t * Library.entry) list
