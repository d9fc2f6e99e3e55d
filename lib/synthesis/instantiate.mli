(** Numerical instantiation of template parameters.

    Minimizes the global-phase-invariant Hilbert-Schmidt distance
    [1 - |tr(T^dag V(p))| / d] between a target [T] and the template
    unitary [V(p)] with Adam on exact gradients: one forward sweep of
    prefix products and one backward sweep from the target per step,
    on buffers allocated once per {!instantiate} call. *)

open Epoc_linalg

type result = { params : float array; distance : float; iterations : int }

type options = {
  max_iterations : int;
  learning_rate : float;
  tolerance : float;  (** stop when distance below this *)
  patience : int;  (** stop after this many non-improving iterations *)
  restarts : int;  (** random restarts (in addition to the given seed) *)
}

val default_options : options

(** [distance target t p] by simulating the template circuit; the
    reference the exact evaluation is checked against. *)
val distance : Mat.t -> Template.t -> float array -> float

(** Distance and exact gradient at [p], from one forward/backward
    evaluation.  The distance is bit-identical to {!distance}: the
    forward sweep replays the circuit simulator's arithmetic and takes
    the overlap with [Mat.hs_fidelity]'s kernel.

    @raise Invalid_argument on a parameter-count or width mismatch. *)
val evaluate : Mat.t -> Template.t -> float array -> float * float array

(** [snd (evaluate target t p)]. *)
val gradient : Mat.t -> Template.t -> float array -> float array

(** Instantiate a template against a target, trying the [seed] (or a
    random start) then [options.restarts] random restarts drawn from
    [rng]; returns the best result found. *)
val instantiate :
  ?options:options ->
  ?seed:float array ->
  ?rng:Random.State.t ->
  Mat.t ->
  Template.t ->
  result
