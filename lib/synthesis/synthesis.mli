(** Synthesis facade used by the EPOC pipeline.

    {!vug_form} rewrites any circuit into VUG+CNOT form directly; it is
    the fallback when the search does not converge, the baseline the
    synthesized candidate must beat and, where {!cnot_lower_bound}
    proves no search result could beat it, the answer without a
    search, so
    {!synthesize_block} always returns a circuit equivalent to its
    input — typed solver failures degrade to the direct form rather
    than aborting the block. *)

open Epoc_circuit

type source = Synthesized | Fallback

type block_result = {
  circuit : Circuit.t;  (** VUG + CNOT form, equivalent to the input *)
  source : source;
  distance : float;  (** instantiation distance (0 for fallback) *)
  expansions : int;
  prunes : int;  (** QSearch nodes dropped at the CNOT cap *)
  open_max : int;  (** QSearch open-set high-water mark (0 = no search) *)
  failure : string option;
      (** why the search fell back when it did so abnormally (deadline,
          injected fault); [None] for a clean search, a width cutoff or a
          skipped search *)
}

(** Lower every entangling gate to CX and fuse single-qubit runs. *)
val vug_form : Circuit.t -> Circuit.t

val cx_count : Circuit.t -> int

(** Fewest CNOTs, single-qubit gates free, of any circuit within
    Hilbert-Schmidt distance 1e-8 of the two-qubit unitary [u] (0 to 3),
    from the Shende–Bullock–Markov invariants of [u] with a margin that
    covers the distance.  @raise Invalid_argument unless [u] is 4x4. *)
val cnot_lower_bound : Epoc_linalg.Mat.t -> int

(** Synthesize one partition block (local indices).  The synthesized
    candidate is only accepted when the search converged below
    threshold {e and} it improves on the direct VUG form (fewer CNOTs,
    or equal CNOTs and lower depth); every other path — width cutoff,
    exhausted search, expired [budget], injected [fault] — degrades to
    the direct form, never raises.  A 1- or 2-qubit block whose direct
    form no search result could beat returns that form unsearched, with
    zero search telemetry; [budget] and [fault] then go unused. *)
val synthesize_block :
  ?options:Qsearch.options ->
  ?max_search_qubits:int ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  Circuit.t ->
  block_result

(** Hilbert-Schmidt verification helper for callers and tests. *)
val verify : eps:float -> Circuit.t -> block_result -> bool

(** {1 Stage report} *)

type stage_report = {
  block_count : int;
  synthesized : int;  (** blocks where the search beat the direct form *)
  fallback : int;
  total_expansions : int;
  total_prunes : int;
  max_open : int;  (** largest open-set high-water mark over the batch *)
}

val stage_report : block_result list -> stage_report
val counters : stage_report -> (string * int) list
