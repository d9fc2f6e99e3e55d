(** Minimal pulse duration search (the paper's binary search on
    latency) and the calibrated analytic estimator.

    {!find_min_duration_r} brackets then bisects the smallest GRAPE
    slot count reaching the fidelity target, returning typed
    {!Epoc_error.t} failures ([Duration_unreachable] when the bracket
    runs out, [Solver_diverged] / [Deadline_exceeded] passed through
    from GRAPE). *)

open Epoc_linalg
open Epoc_circuit

(** Telemetry of one GRAPE optimization inside the duration search. *)
type attempt = {
  att_slots : int;
  att_iterations : int;
  att_fidelity : float;
  att_stop : Grape.stop_reason;
}

type search_result = {
  slots : int;
  duration : float;  (** ns *)
  fidelity : float;
  result : Grape.result;
  grape_runs : int;  (** GRAPE optimizations the search used *)
  attempts : attempt list;  (** per-run telemetry, in run order *)
}

type options = {
  grape : Grape.options;
  granularity : int;  (** slot quantum for bisection *)
  max_slots : int;
  min_slots : int;
}

val default_options : options

(** Result-returning duration search, one {!Grape.optimize_r} attempt
    at a time.  The first attempt runs at [initial_guess] (default and
    floor [min_slots]).  A failing bound doubles until an attempt
    succeeds, or the search returns [Duration_unreachable] once the
    bound passes [max_slots]; a succeeding first attempt halves until
    one fails or the bound drops below [min_slots]; the bracket is then
    bisected down to [granularity].  The attempt at [slots] draws from
    [rng] when given (a retry passes one), else from
    [Random.State.make [|29; slots|]], so a search's result depends only
    on its inputs.  A GRAPE error ends the search.

    [init] warm-starts every attempt from cached amplitudes;
    [budget]/[fault]/[site]/[attempt] are threaded into each attempt
    (see {!Grape.optimize_r}).  [pool] and [workspace] (omitted = a
    fresh one, reused by every attempt) tune execution only. *)
val find_min_duration_r :
  ?options:options ->
  ?initial_guess:int ->
  ?init:float array array ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  ?attempt:int ->
  ?pool:Epoc_parallel.Pool.t ->
  ?workspace:Grape.workspace ->
  Hardware.t ->
  Mat.t ->
  (search_result, Epoc_error.t) Result.t

(** {1 Analytic estimator} *)

type estimate = { est_duration : float; est_fidelity : float }

(** Price a unitary via its VUG+CNOT realization under the hardware's
    reference gate times (virtual-Z free, speed-limit single-qubit
    pulses, Weyl interaction content for two-qubit blocks, packed
    critical path for wider ones); calibrated against GRAPE duration
    searches on the default hardware model. *)
val estimate : ?unitary:Mat.t -> Hardware.t -> Circuit.t -> estimate

(** Slot-count seed for {!find_min_duration_r} derived from the
    estimate. *)
val guess_slots : ?unitary:Mat.t -> Hardware.t -> Circuit.t -> int

(** {1 Stage report} *)

(** Structured summary of a batch of resolved pulses (QOC stage) for
    the pass pipeline's trace sink. *)
type stage_report = {
  pulses : int;
  computed : int;
  total_duration_ns : float;
}

val stage_report : computed:int -> (float * float) list -> stage_report
val counters : stage_report -> (string * int) list
