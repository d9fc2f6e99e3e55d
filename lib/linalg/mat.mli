(** Dense complex matrices, row-major, unboxed interleaved storage.

    The representation is a single flat [float array] of length
    [2 * rows * cols] holding (re, im) pairs, so kernels run on raw
    unboxed doubles.  Two API layers:

    - a functional API returning fresh matrices (cold paths: circuit
      simulation, ZX verification, tests);
    - destination-passing [_into] kernels writing into preallocated
      buffers (hot paths: GRAPE, the matrix exponential).

    Aliasing contract for the [_into] kernels: element-wise kernels
    ([add_into], [sub_into], [scale_re_into], [scale_into],
    [add_scaled_re_into]) allow [dst] to alias any input; [mul_into] and
    [adjoint_into] require [dst] distinct from every input and raise
    [Invalid_argument] when it is not.

    Error contract (repo-wide taxonomy, see lib/resilience/epoc_error.mli):
    every raise in this library is [Invalid_argument] for a violated
    precondition — dimension mismatch, non-square input, aliased
    destination — i.e. a programmer error, never a recoverable runtime
    condition.  Recoverable numerical failures (solver divergence,
    deadline) are the domain of [Epoc_error] in the layers above; no
    bare [Failure] escapes any library boundary. *)

type t

val rows : t -> int
val cols : t -> int

val data : t -> float array
(** Raw storage: [2 * rows * cols] floats, row-major, (re, im)
    interleaved.  Exposed so {!Expm} and the solvers can run fused
    {!Kernels} ops on [Mat] operands; mutating it bypasses every shape
    check, so treat it as read-only outside lib/linalg. *)

val create : int -> int -> t
(** [create rows cols] is the all-zero matrix. *)

val init : int -> int -> (int -> int -> Cx.t) -> t
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t
val zeros : int -> int -> t
val identity : int -> t
val of_arrays : Cx.t array array -> t
val dims_equal : t -> t -> bool
val map : (Cx.t -> Cx.t) -> t -> t
val map2 : (Cx.t -> Cx.t -> Cx.t) -> t -> t -> t

(** {1 Destination-passing kernels} *)

val copy_into : src:t -> dst:t -> unit
val fill_zero : t -> unit
val set_identity : t -> unit

val add_into : t -> t -> dst:t -> unit
(** [add_into a b ~dst] sets [dst <- a + b]; [dst] may alias [a] or [b]. *)

val sub_into : t -> t -> dst:t -> unit
(** [sub_into a b ~dst] sets [dst <- a - b]; [dst] may alias [a] or [b]. *)

val scale_re_into : float -> t -> dst:t -> unit
(** [scale_re_into s m ~dst] sets [dst <- s * m]; [dst] may alias [m]. *)

val scale_into : Cx.t -> t -> dst:t -> unit
(** [scale_into s m ~dst] sets [dst <- s * m]; [dst] may alias [m]. *)

val add_scaled_re_into : float -> t -> dst:t -> unit
(** [add_scaled_re_into s m ~dst] sets [dst <- dst + s * m]; the
    Hamiltonian-assembly axpy of the GRAPE inner loop. *)

val mul_into : t -> t -> dst:t -> unit
(** [mul_into a b ~dst] sets [dst <- a * b].  [dst] must not alias [a] or
    [b] (checked by physical equality; raises [Invalid_argument]). *)

val adjoint_into : t -> dst:t -> unit
(** [adjoint_into m ~dst] sets [dst <- m^dag].  [dst] must not alias [m]
    (checked). *)

val mix_rows_inplace : t -> rows:int array -> coeff:t -> scratch:t -> unit
(** [mix_rows_inplace u ~rows ~coeff ~scratch] sets
    [u[rows.(i), :] <- sum_j coeff[i][j] * u[rows.(j), :]] simultaneously
    for all [i] — the gate-application primitive of the circuit
    simulator.  [scratch] must be an [Array.length rows] x [cols u]
    matrix distinct from [u] and [coeff] (checked). *)

(** {1 Functional operations} *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : Cx.t -> t -> t
val scale_re : float -> t -> t
val transpose : t -> t
val conj : t -> t
val adjoint : t -> t
val mul : t -> t -> t
val mul_vec : t -> Cx.t array -> Cx.t array
val kron : t -> t -> t
val trace : t -> Cx.t

val trace_mul : t -> t -> Cx.t
(** [trace_mul a b] is [trace (mul a b)] without materializing the
    product; used for GRAPE gradient inner products. *)

val one_norm : t -> float
val max_abs_diff : t -> t -> float
val approx_equal : ?eps:float -> t -> t -> bool
val is_square : t -> bool
val is_unitary : ?eps:float -> t -> bool
val is_hermitian : ?eps:float -> t -> bool
val is_diagonal : ?eps:float -> t -> bool

(** {1 Global-phase-invariant comparisons} *)

val hs_fidelity : t -> t -> float
val hs_distance : t -> t -> float
val equal_up_to_phase : ?eps:float -> t -> t -> bool
val canonical_phase : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
