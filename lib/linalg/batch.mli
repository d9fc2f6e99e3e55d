(** Batches of B same-sized square complex matrices in one contiguous
    unboxed float array.

    Matrix [i] occupies the [2 * dim * dim] floats at
    [offset t i = i * 2 * dim * dim], row-major, (re, im) interleaved —
    exactly a {!Mat.t} laid end to end.  Every batched op is a loop of
    {!Kernels} calls at slice offsets, so slice [i] sees the exact
    floating-point operation sequence of the corresponding per-matrix
    {!Mat} / {!Expm} op: batched and unbatched GRAPE solves are
    bit-identical by construction.  The property tests in
    test/test_linalg.ml pin this down with exact float comparison.

    Ops take [?mask]: slice [i] is skipped when [mask.(i) = false].
    GRAPE keeps a lockstep batch running while jobs with fewer slots or
    early stops drop out, without repacking.

    Error contract: every raise is [Invalid_argument] for a violated
    precondition — batch shape mismatch, mask or output array of the
    wrong length, out-of-range slice index, aliased [mul_into]
    destination, non-positive creation dims — never a recoverable
    runtime condition. *)

type t

val create : int -> int -> t
(** [create b dim] is a batch of [b] zero [dim x dim] matrices. *)

val b : t -> int
val dim : t -> int

val data : t -> float array
(** Raw storage view (see layout above); read-only outside lib/linalg
    except via {!Kernels} with offsets from {!offset}. *)

val offset : t -> int -> int
(** Float-array offset of slice [i] (not range-checked; pair with
    {!Kernels} calls only). *)

(** {1 Conversion} *)

val of_mats : Mat.t array -> t
val set_from_mat : t -> int -> Mat.t -> unit
val get_mat : t -> int -> Mat.t

(** {1 Batched destination-passing ops} *)

val set_identity : ?mask:bool array -> t -> unit

val copy_into : ?mask:bool array -> t -> dst:t -> unit
(** [copy_into src ~dst] sets [dst_i <- src_i]. *)

val mul_into : ?mask:bool array -> t -> t -> dst:t -> unit
(** [mul_into a x ~dst] sets [dst_i <- a_i * x_i].  [dst] must not alias
    [a] or [x] (checked by physical equality). *)

val set_from_mats : ?mask:bool array -> Mat.t array -> dst:t -> unit
(** [set_from_mats ms ~dst] sets [dst_i <- ms_i]. *)

val add_scaled_re_into :
  ?mask:bool array -> float array -> Mat.t array -> dst:t -> unit
(** [add_scaled_re_into coeffs ms ~dst] sets
    [dst_i <- dst_i + coeffs_i * ms_i] — the batched Hamiltonian-assembly
    axpy. *)

val scale_re_into : ?mask:bool array -> float array -> t -> dst:t -> unit
(** [scale_re_into coeffs src ~dst] sets [dst_i <- coeffs_i * src_i];
    [dst] may alias [src]. *)

(** {1 Per-slice reductions}

    Outputs are interleaved: slice [i]'s (re, im) lands in [out.(2 i)],
    [out.(2 i + 1)].  [out] must have length [2 * b] (checked). *)

val trace_mul_left : ?mask:bool array -> Mat.t array -> t -> out:float array -> unit
(** tr(ms_i · t_i) — [Mat] operand on the left (GRAPE fidelity overlap
    against per-job target adjoints). *)

val trace_mul_right : ?mask:bool array -> t -> Mat.t array -> out:float array -> unit
(** tr(t_i · ms_i) — [Mat] operand on the right (GRAPE gradient inner
    products against control Hamiltonians). *)

val trace : ?mask:bool array -> t -> out:float array -> unit

val frobenius : ?mask:bool array -> t -> out:float array -> unit
(** Per-slice Frobenius norms; [out] has length [b] (checked). *)

(** {1 Batched matrix exponential} *)

type scratch
(** Series workspace for one batch exponential at a fixed dim; reusable
    across calls and batches of any width. *)

val scratch : int -> scratch

val expi_hermitian_into :
  ?mask:bool array -> scratch -> t -> float array -> dst:t -> unit
(** [expi_hermitian_into s h ts ~dst] sets
    [dst_i <- exp(-i * ts_i * h_i)] for Hermitian slices of [h].  Each
    slice runs in place the kernel that {!Expm.expi_hermitian_into} runs
    ({!Kernels.expi2_at} at dim 2, {!Kernels.expi_at} above), so slice
    [i] equals the solo exponential bit for bit.  Only the Hermitian part
    of each slice is read at dim 2.  [dst] may be [h]. *)
