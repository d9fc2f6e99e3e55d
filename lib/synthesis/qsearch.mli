(** VUG-based heuristic circuit synthesis (paper Algorithm 2).

    Best-first search over CNOT skeletons: expand by appending one CNOT
    at every qubit pair, instantiate each successor numerically and
    order the open set by [f = distance + cnot_weight * #CNOTs].  A
    node-expansion budget bounds the classical cost.

    {!synthesize_r} returns [Ok] only on a converged search, with
    exhaustion and deadline aborts mapped to typed {!Epoc_error.t}
    values. *)

open Epoc_linalg

val log_src : Logs.src

type options = {
  threshold : float;  (** success distance *)
  max_cnots : int;
  max_expansions : int;
  instantiate_options : Instantiate.options;
  cnot_weight : float;  (** heuristic weight per CNOT in the priority *)
}

val default_options : options

type outcome = {
  circuit : Epoc_circuit.Circuit.t;
  distance : float;
  cnots : int;
  expansions : int;
  converged : bool;  (** false = budget exhausted, best effort returned *)
  prunes : int;  (** nodes popped but not expanded (CNOT cap reached) *)
  open_max : int;  (** open-set high-water mark: frontier pressure *)
  trajectory : float list;
      (** best distance after each expansion, oldest first *)
}

(** Result-returning synthesis.  A search that
    exhausts [max_expansions] without converging returns
    [Error (Synthesis_exhausted _)] carrying the telemetry; [budget]
    is checked every expansion and injected [fault]s
    ([qsearch_exhaust], [deadline]) are resolved deterministically
    from (seed, kind, [site], [attempt]).

    @raise Invalid_argument unless the target is square with
    power-of-two dimension. *)
val synthesize_r :
  ?options:options ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  ?attempt:int ->
  Mat.t ->
  (outcome, Epoc_error.t) Result.t
