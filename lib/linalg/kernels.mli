(** Raw offset-based kernels over interleaved (re, im) float arrays.

    This is the single implementation point for the dense complex
    arithmetic in this library: {!Mat}'s destination-passing ops and the
    matrix exponential call these kernels on their flat storage, and
    solvers (GRAPE, instantiation) call them on {!Mat.data} where a
    fused op saves a copy or a boxed scalar.

    Unsafe layer: these functions perform {e no} bounds or shape checks —
    callers ([Mat], [Expm], the solvers) validate and raise
    [Invalid_argument] before descending here.  A matrix of [r] rows and
    [c] cols occupies [2 * r * c] consecutive floats at its offset,
    row-major, (re, im) interleaved. *)

(** [mul ~m ~n ~p a aoff b boff dst doff] writes the [m x n] times
    [n x p] product into [dst] at [doff].  [dst] must not overlap either
    input range.  At [m = n = p = 4] an unrolled loop runs; for finite
    inputs it returns the generic loop's bits. *)
val mul :
  m:int ->
  n:int ->
  p:int ->
  float array ->
  int ->
  float array ->
  int ->
  float array ->
  int ->
  unit

(** [trace_mul ~d a aoff b boff out oidx] writes tr(A·B) for square
    [d x d] operands into [out.(oidx)] (re), [out.(oidx + 1)] (im)
    without materializing the product or allocating a [Complex.t]. *)
val trace_mul :
  d:int ->
  float array ->
  int ->
  float array ->
  int ->
  float array ->
  int ->
  unit

(** [dotc ~len a aoff b boff out oidx] writes [sum_i conj(a_i) b_i] over
    [len] complex entries — tr(A^dag B) for equal-shape operands — into
    [out.(oidx)] (re), [out.(oidx + 1)] (im). *)
val dotc :
  len:int -> float array -> int -> float array -> int -> float array -> int -> unit

(** [axpy_re_at ~len ss si src soff dst doff]: dst += s·src over [len]
    complex entries, with the real scalar [s] read from [ss.(si)]: without
    flambda every float argument of a non-inlined call is boxed, so
    per-call scalars travel through unboxed float-array slots instead.
    Full aliasing allowed. *)
val axpy_re_at :
  len:int -> float array -> int -> float array -> int -> float array -> int -> unit

(** [expi2_at h hoff ts ti dst doff] writes exp(-i·t·H) for a Hermitian
    2x2 [H] in closed form (Pauli decomposition; exact up to rounding),
    with the time step [t] read from [ts.(ti)] (same no-float-args
    rationale as {!axpy_re_at}).  Only the Hermitian part of the input is
    read: the real diagonal and [H01].  [dst] may alias [h]. *)
val expi2_at :
  float array -> int -> float array -> int -> float array -> int -> unit

(** [expi_scratch d] is the number of scratch floats {!expi_at} needs at
    dimension [d]. *)
val expi_scratch : int -> int

(** [expi_at ~d h hoff ts ti dst doff ws] writes exp(-i·t·H) for a
    [d x d] [H], with [t] read from [ts.(ti)]: scaling and squaring
    around the degree-12 Taylor polynomial, evaluated by
    Paterson–Stockmeyer in 5 products.  Every entry of [H] is read.
    [ws] holds at least [expi_scratch d] floats and must not overlap
    [dst]; [dst] may alias [h].  Allocates nothing.  {!Expm} runs it at
    every dim above 2. *)
val expi_at :
  d:int ->
  float array ->
  int ->
  float array ->
  int ->
  float array ->
  int ->
  float array ->
  unit
