(** Concrete passes of the EPOC pipeline (paper Figure 3) over the
    {!Ir.t} compilation IR, plus the pulse-resolution engine they share.

    Determinism contract (also stated in lib/epoc/pipeline.ml): every
    parallel fan-out is pure or works on forked state merged in a fixed
    order and preserves item order, so results are bit-identical for any
    domain count.

    Schedule-entry contract (what the pulse-IR exporter relies on): the
    [schedule] pass builds one {!Epoc_pulse.Schedule.instruction} per
    non-virtual group of the winning regrouping — [qubits] are the
    group's global qubits, [duration]/[fidelity] the resolved pulse
    values, [label] is ["g<k>"] (or ["fb<k>"] for a degraded block
    playing gate pulses), and [pulse] carries the resolved GRAPE
    amplitudes exactly when the resolution produced them (Grape mode,
    not degraded) — stashed at resolution time, never re-probed from the
    library. *)

open Epoc_linalg
open Epoc_circuit
open Epoc_qoc
open Epoc_pulse
open Epoc_parallel
module Metrics = Epoc_obs.Metrics

val log_src : Logs.Src.t

module Log : Logs.LOG

(** Calibrated per-gate pulse table [(duration ns, fidelity)]: virtual
    Z-family gates are free, others priced from the hardware model's
    reference times.  Shared by the gate-based baseline flow and the
    graceful-degradation fallback. *)
val gate_pulse : Hardware.t -> Gate.t -> float * float

(** Per-gate pulse playback price of one block-local circuit
    [(duration, fidelity)]: the graceful-degradation target when a
    block's GRAPE retries are exhausted — block-local ASAP critical
    path of the per-gate pulses, product of their fidelities. *)
val gate_fallback : Hardware.t -> Circuit.t -> float * float

(** Greedy nearest-neighbor visit order over the global-phase-invariant
    Hilbert-Schmidt distance (AccQOC's similarity ordering), starting at
    index 0, ties toward the lowest index.  Pure and sequential. *)
val similarity_chain : Mat.t array -> int array

(** Resolve a batch of pulse jobs in place against [library], returning
    [(jobs, fresh computations)].  Three phases: a sequential probe
    (library, then the persistent store), the compute of the unresolved
    representatives — one independent computation per representative
    (a GRAPE duration search with its own retries, or an estimate)
    mapped over the pool, GRAPE searches one (width, hardware context)
    group at a time, and with [similarity_order] each group a
    sequential chain — and a sequential writeback, which also logs the
    warnings of degraded blocks and failed searches in job order.  Each
    job carries its block model, reuse context, canonical form and
    library key, computed once when the job was built: its context
    scopes every library and store probe, and no probe fingerprints the
    job again. *)
val resolve_pulses :
  ?request_id:string ->
  ?metrics:Metrics.t ->
  ?process_metrics:Metrics.t ->
  ?cache:Epoc_cache.Store.t ->
  ?fault:Epoc_fault.spec ->
  ?budget:Epoc_budget.t ->
  Config.t ->
  Pool.t ->
  Library.t ->
  Ir.pulse_job list ->
  int * int

(** First minimum by schedule latency; ties keep the earliest candidate.
    @raise Invalid_argument on an empty list. *)
val best_by_latency : (Schedule.t * 'a) list -> Schedule.t * 'a

(** {1 Passes}

    Each pass owns one stage of the IR; see the implementation header
    for the stage-by-stage dataflow. *)

val reorder_gates : Pass.t

(** Greedy partition of the current gate-level circuit, restricted to
    the device's coupling subgraph when the config carries one. *)
val partition : Pass.t

val synthesis : Pass.t
val reorder_vugs : Pass.t
val regroup_trivial : Pass.t
val regroup_sweep : Pass.t

(** Annotate every group of every regrouping with its pulse job and
    resolve the whole batch through {!resolve_pulses}. *)
val pulses : Pass.t

(** Build one ASAP schedule per regrouping and keep the lowest-latency
    one, attaching each job's resolved waveform to its instruction. *)
val schedule : Pass.t
