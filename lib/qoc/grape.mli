(** GRAPE: gradient ascent pulse engineering (Khaneja et al. 2005).

    Piecewise-constant controls [u.(j).(k)] over [slots] intervals of
    length [dt]; the figure of merit is the global-phase-invariant gate
    fidelity [F = |tr(U_target^dag U)| / d], ascended with Adam under
    amplitude clipping.

    {!optimize_r} solves one target: it returns a [result] and maps
    divergence (non-finite fidelity), expired {!Epoc_budget.t}
    deadlines and injected {!Epoc_fault} faults to typed
    {!Epoc_error.t} values.  Its slot chain splits into {!segments}, and
    a solve of more than one segment sweeps them over a
    {!Epoc_parallel.Pool}.  Independent solves fan out as whole calls
    (the pipeline maps one duration search per block over its pool); a
    result depends only on the solve's inputs, never on which domain
    runs it or how many domains there are. *)

open Epoc_linalg

(** Shared log source for the QOC layer (GRAPE + the duration search). *)
val log_src : Logs.src

(** A piecewise-constant pulse: [amplitudes.(control).(slot)] in
    rad/ns, [labels] parallel to the control axis. *)
type pulse = {
  dt : float;
  labels : string array;
  amplitudes : float array array;
}

(** Total pulse duration in ns. *)
val duration : pulse -> float

val slot_count : pulse -> int

(** CSV export of the pulse envelopes: one row per slot, one column per
    control channel. *)
val pulse_to_csv : pulse -> string

type options = {
  iterations : int;
  learning_rate : float;
  fidelity_target : float;
  patience : int;
      (** window of the progress-aware stop: after iteration [t], stop
          when twice the best-so-far gain of the last [patience]
          iterations, carried over the iterations left, cannot reach
          [fidelity_target] (see {!patience_stop}).  An attempt cut
          this way could only have reached the target by gaining more
          than twice as fast as it just did.  Compiling 50 seeded
          2-qubit RZ+CZ circuits runs 489 attempts that reach 0.999;
          the largest factor in place of 2 that would have cut one of
          them is 1.09.  [patience >= iterations] never stops a run. *)
  init : float array array option;
      (** warm-start amplitudes [control][slot] from a cached
          near-neighbor pulse; resampled to the requested slot count
          and clipped to the drive limit.  [None] = random cold
          start. *)
}

val default_options : options

(** Why the ascent loop ended: [Target_hit] when an iteration reaches
    [fidelity_target]; [Patience] when {!patience_stop} finds the
    recent gain too small to reach it before the budget (a plateau
    always is); [Budget] when the last iteration ends below target. *)
type stop_reason = Target_hit | Patience | Budget

val stop_reason_name : stop_reason -> string

(** [patience_stop ~target ~patience ~iterations best t]: the patience
    decision after iteration [t] (1-based), where [best.(i)] is the
    best-so-far fidelity after iteration [i + 1].  True iff
    [patience < t < iterations] and
    [best_t + 2 (best_t - best_(t-patience)) / patience (iterations - t)
    < target].  A pure function of its arguments: the solver calls it
    once per iteration without allocating, after the target check.
    Exposed for tests. *)
val patience_stop :
  target:float ->
  patience:int ->
  iterations:int ->
  float array ->
  int ->
  bool

(** One point of the convergence series, recorded every iteration. *)
type sample = {
  it : int;  (** 1-based iteration *)
  s_fidelity : float;
  s_grad_norm : float;  (** L2 norm over all (control, slot) gradients *)
  s_step : float;  (** mean |amplitude update| this iteration, rad/ns *)
}

type result = {
  pulse : pulse;
  fidelity : float;
  achieved : Mat.t;  (** realized total propagator *)
  iterations : int;
  stop : stop_reason;
  warm_start : bool;  (** ascent was seeded from cached amplitudes *)
  series : sample list;  (** convergence telemetry, oldest first *)
}

(** Total propagator for a pulse under the hardware model. *)
val propagate : Hardware.t -> pulse -> Mat.t

(** [fidelity_of target u]: global-phase-invariant gate fidelity. *)
val fidelity_of : Mat.t -> Mat.t -> float

(** {1 Solving} *)

(** Reusable matrix scratch for solves: one set of buffers that grows on
    demand and is kept across calls, so threading one workspace through
    a whole duration search (many attempts at varying slot counts) makes
    the solver inner loop allocation-free.  A workspace serves one solve
    at a time; concurrent solves each take their own.  Measured on one
    domain as the minor words of a 600-iteration solve less those of a
    300-iteration solve, per iteration: 14.00 at 1 qubit/24 slots,
    2/112, 3/112 and 3/256 (8 segments), exactly one convergence
    [series] sample (a 4-field record with three boxed floats and a cons
    cell).  At both budgets every per-solve array exceeds the minor
    heap's largest block (256 words), so only the loop's own allocation
    differs.

    [metrics] is the sink for wall-clock solver gauges
    ([grape.iters_per_s], the iterations per second of the last solve
    on this workspace); the pipeline passes the owning engine's
    registry.  Wall-clock values are non-deterministic, so they never
    belong in a per-run registry, and without a sink they are simply
    dropped. *)
type workspace

val workspace : ?metrics:Epoc_obs.Metrics.t -> unit -> workspace

(** Number of checkpoint segments a [(dim, slots)] solve splits into.
    A one-segment solve calls its sweeps directly; a larger one fans
    them out over the pool.  A pure function of its arguments — never
    of pool size — so the floating-point reduction order is pinned for
    any [EPOC_JOBS].  Exposed for tests. *)
val segments : dim:int -> slots:int -> int

(** Result-returning optimization of one target.

    [budget] is checked every iteration and yields
    [Error (Deadline_exceeded _)]; a non-finite fidelity (or an
    injected [grape_nan] fault from [fault]) yields
    [Error (Solver_diverged _)].  [site] names this solve in errors,
    fault matching and logs (e.g. [block3]); [attempt] is the 0-based
    retry attempt the caller is on, part of the deterministic fault
    derivation.

    [pool] (omitted = sequential) sweeps the segments of a segmented
    solve, over whatever domains enclosing fan-outs leave free;
    [workspace] (omitted = a fresh one) supplies the matrix scratch.
    Both tune execution only; they never change the result.

    @raise Invalid_argument on dimension mismatch or [slots < 1]. *)
val optimize_r :
  ?options:options ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  ?attempt:int ->
  ?pool:Epoc_parallel.Pool.t ->
  ?workspace:workspace ->
  Hardware.t ->
  target:Mat.t ->
  slots:int ->
  (result, Epoc_error.t) Result.t
