(** Matrix exponential exp(-i·t·H) of a Hermitian [H]: scaling and
    squaring around a degree-12 Taylor polynomial evaluated by
    Paterson–Stockmeyer in 5 matrix products ({!Kernels.expi_at}), and
    the exact closed form at 2x2 ({!Kernels.expi2_at}).

    {!expi_hermitian_into} runs entirely on a caller-provided {!scratch},
    so the GRAPE inner loop — one exponential per slot per iteration —
    allocates nothing.  The Hermitian path in {!Eig} is the independent
    reference implementation used by the tests.

    Error contract: every raise is [Invalid_argument] for a violated
    precondition (non-square input, mismatched scratch/destination dims),
    never a recoverable runtime condition. *)

type scratch
(** Workspace for one exponential of a fixed dimension; reusable across
    any number of calls at that dimension. *)

val scratch : int -> scratch

val expi_hermitian_into : scratch -> Mat.t -> float -> dst:Mat.t -> unit
(** [expi_hermitian_into s h t ~dst] sets [dst <- exp(-i * t * h)] for
    Hermitian [h].  The 2x2 case uses the exact closed-form Pauli
    exponential and reads only the Hermitian part of [h]; larger dims run
    the series.  [dst] may alias [h]. *)

(** {1 Allocating wrapper} *)

val expi_hermitian : Mat.t -> float -> Mat.t
