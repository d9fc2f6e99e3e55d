(** Typed error channel for the EPOC solver libraries.

    Every recoverable failure the pipeline knows how to handle — a
    diverging GRAPE solve, an expired compute budget, an exhausted
    synthesis search — is a constructor of {!t}.  The solver entry
    points ([Grape.optimize_r], [Qsearch.synthesize_r],
    [Latency.find_min_duration_r]) return [(_, t) result]; no public
    solver API raises {!Error}.

    Error-taxonomy contract (DESIGN.md section 4f):
    - {!t} via a [result] (or the {!Error} exception between internal
      layers): environmental/numerical failures the caller is expected
      to recover from (retry, widen, fall back);
    - [Invalid_argument]: violated precondition, a programmer error —
      documented per function in the [.mli]s, never caught by the
      retry machinery;
    - bare [Failure] must never escape a library boundary. *)

type t =
  | Solver_diverged of { site : string; detail : string }
      (** The optimizer produced a non-finite fidelity (NaN/inf) or an
          injected divergence fired.  [site] is the block label
          ([block3], [synth0], ...). *)
  | Deadline_exceeded of { site : string; elapsed_s : float }
      (** A {!Epoc_budget.t} expired inside a solver loop. *)
  | Synthesis_exhausted of {
      site : string;
      expansions : int;
      prunes : int;
      open_max : int;
    }
      (** QSearch ran out of its expansion budget without converging.
          Carries the search telemetry so callers can still report it. *)
  | Duration_unreachable of { site : string; max_slots : int }
      (** The duration search bracketed up to [max_slots] without
          reaching the fidelity target. *)
  | Numerical of string  (** Any other numerical failure, described. *)

exception Error of t

(** Short stable tag of the constructor ([solver_diverged], ...), used
    as a metrics label and in CLI diagnostics. *)
val label : t -> string

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [raise_ e] raises {!Error}[ e]. *)
val raise_ : t -> 'a

(** [wrap f] runs [f ()] and converts an escaping {!Error} into
    [Error _]; all other exceptions propagate.  This is the standard
    implementation of the [_r] entry points. *)
val wrap : (unit -> 'a) -> ('a, t) result
