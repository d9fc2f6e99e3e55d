(* Raw kernels over interleaved (re, im) float arrays at explicit offsets.

   Every dense complex kernel in this library — [Mat]'s destination-passing
   ops and the matrix exponential — bottoms out here, on the same loop
   nests over the same flat storage, so a solver that calls a kernel on a
   matrix's raw storage runs the exact floating-point operation sequence
   of the [Mat] op.

   Contract: callers validate shapes and offsets; these kernels use
   unchecked accesses and assume every index below is in bounds.  A matrix
   of [r] rows and [c] cols occupies [2 * r * c] consecutive floats at its
   offset, row-major, (re, im) interleaved. *)

(* dst <- a * b for an [m x n] times [n x p] product.  [dst] must not
   overlap either input range.  Replicates the zero-skip accumulation
   order of the historical [Mat.mul_into] exactly. *)
let mul_any ~m ~n ~p (a : float array) aoff (b : float array) boff
    (dst : float array) doff =
  Array.fill dst doff (2 * m * p) 0.0;
  for r = 0 to m - 1 do
    let abase = aoff + (2 * r * n) and obase = doff + (2 * r * p) in
    for k = 0 to n - 1 do
      let are = Array.unsafe_get a (abase + (2 * k))
      and aim = Array.unsafe_get a (abase + (2 * k) + 1) in
      if are <> 0.0 || aim <> 0.0 then begin
        let bbase = boff + (2 * k * p) in
        for c = 0 to p - 1 do
          let bre = Array.unsafe_get b (bbase + (2 * c))
          and bim = Array.unsafe_get b (bbase + (2 * c) + 1) in
          let oi = obase + (2 * c) in
          Array.unsafe_set dst oi
            (Array.unsafe_get dst oi +. ((are *. bre) -. (aim *. bim)));
          Array.unsafe_set dst (oi + 1)
            (Array.unsafe_get dst (oi + 1) +. ((are *. bim) +. (aim *. bre)))
        done
      end
    done
  done

(* [mul_any] at m = n = p = 4 (every 2-qubit GRAPE slot product),
   unrolled over k without the zero-skip branch.  Each entry is
   [mul_any]'s chain ((((+0 + t0) + t1) + t2) + t3) with the same
   per-term expressions.  [mul_any] drops the terms whose [a] entry is
   +-0; for finite [b] such a term is itself +-0, and adding +-0 cannot
   change an accumulator that starts at +0.0 (no sum in the chain can be
   -0.0), so for finite inputs both return the same bits. *)
let mul4 (a : float array) aoff (b : float array) boff (dst : float array)
    doff =
  for r = 0 to 3 do
    let ar = aoff + (8 * r) in
    let a0r = Array.unsafe_get a ar and a0i = Array.unsafe_get a (ar + 1) in
    let a1r = Array.unsafe_get a (ar + 2)
    and a1i = Array.unsafe_get a (ar + 3) in
    let a2r = Array.unsafe_get a (ar + 4)
    and a2i = Array.unsafe_get a (ar + 5) in
    let a3r = Array.unsafe_get a (ar + 6)
    and a3i = Array.unsafe_get a (ar + 7) in
    for c = 0 to 3 do
      let bc = boff + (2 * c) in
      let b0r = Array.unsafe_get b bc and b0i = Array.unsafe_get b (bc + 1) in
      let b1r = Array.unsafe_get b (bc + 8)
      and b1i = Array.unsafe_get b (bc + 9) in
      let b2r = Array.unsafe_get b (bc + 16)
      and b2i = Array.unsafe_get b (bc + 17) in
      let b3r = Array.unsafe_get b (bc + 24)
      and b3i = Array.unsafe_get b (bc + 25) in
      let oi = doff + (8 * r) + (2 * c) in
      Array.unsafe_set dst oi
        (0.0
        +. ((a0r *. b0r) -. (a0i *. b0i))
        +. ((a1r *. b1r) -. (a1i *. b1i))
        +. ((a2r *. b2r) -. (a2i *. b2i))
        +. ((a3r *. b3r) -. (a3i *. b3i)));
      Array.unsafe_set dst (oi + 1)
        (0.0
        +. ((a0r *. b0i) +. (a0i *. b0r))
        +. ((a1r *. b1i) +. (a1i *. b1r))
        +. ((a2r *. b2i) +. (a2i *. b2r))
        +. ((a3r *. b3i) +. (a3i *. b3r)))
    done
  done

let mul ~m ~n ~p a aoff b boff dst doff =
  if m = 4 && n = 4 && p = 4 then mul4 a aoff b boff dst doff
  else mul_any ~m ~n ~p a aoff b boff dst doff

(* tr(A * B) for square [d x d] A, B without materializing the product:
   (A B)_{rr} = sum_c A_{rc} B_{cr}.  The (re, im) result is written to
   [out.(oidx)], [out.(oidx + 1)] — a caller-owned cell — so the hot loop
   allocates no [Complex.t].  Accumulation runs through the out cell
   itself (float-array stores are unboxed). *)
let trace_mul ~d (a : float array) aoff (b : float array) boff
    (out : float array) oidx =
  out.(oidx) <- 0.0;
  out.(oidx + 1) <- 0.0;
  for r = 0 to d - 1 do
    let abase = aoff + (2 * r * d) in
    for c = 0 to d - 1 do
      let are = Array.unsafe_get a (abase + (2 * c))
      and aim = Array.unsafe_get a (abase + (2 * c) + 1) in
      let bi = boff + (2 * ((c * d) + r)) in
      let bre = Array.unsafe_get b bi
      and bim = Array.unsafe_get b (bi + 1) in
      Array.unsafe_set out oidx
        (Array.unsafe_get out oidx +. ((are *. bre) -. (aim *. bim)));
      Array.unsafe_set out (oidx + 1)
        (Array.unsafe_get out (oidx + 1) +. ((are *. bim) +. (aim *. bre)))
    done
  done

(* sum_i conj(a_i) b_i over [len] complex entries into [out.(oidx)],
   [out.(oidx + 1)]: tr(A^dag B) for equal-shape A, B, the
   Hilbert-Schmidt overlap. *)
let dotc ~len (a : float array) aoff (b : float array) boff
    (out : float array) oidx =
  let racc = ref 0.0 and iacc = ref 0.0 in
  for i = 0 to len - 1 do
    let ai = aoff + (2 * i) and bi = boff + (2 * i) in
    let are = Array.unsafe_get a ai and aim = Array.unsafe_get a (ai + 1) in
    let bre = Array.unsafe_get b bi and bim = Array.unsafe_get b (bi + 1) in
    racc := !racc +. ((are *. bre) +. (aim *. bim));
    iacc := !iacc +. ((are *. bim) -. (aim *. bre))
  done;
  out.(oidx) <- !racc;
  out.(oidx + 1) <- !iacc

(* dst <- dst + s * src over [len] complex entries, with the real scalar
   s read from [ss.(si)].  Without flambda a non-inlined call boxes
   every float argument; GRAPE's Hamiltonian assembly calls this once
   per (control, slot, iteration), so the scalar travels through an
   unboxed float-array slot instead.  Aliasing (dst == src at the same
   offset) is harmless. *)
let axpy_re_at ~len (ss : float array) si (src : float array) soff
    (dst : float array) doff =
  let s = Array.unsafe_get ss si in
  for i = 0 to (2 * len) - 1 do
    Array.unsafe_set dst (doff + i)
      (Array.unsafe_get dst (doff + i)
      +. (s *. Array.unsafe_get src (soff + i)))
  done

(* dst <- exp(-i * t * H) for a Hermitian 2x2 H, in closed form, with the
   time step read from [ts.(ti)] (without flambda a non-inlined call boxes
   every float argument; see [axpy_re_at]).

   Decompose H = h0 I + x sx + y sy + z sz over the Pauli basis (only the
   Hermitian part of the input is read: the two real diagonal entries and
   H01 = x - i y).  With r = |(x, y, z)| and sn = sin(r t) / r (limit t as
   r -> 0),

     exp(-i t H) = e^{-i t h0} (cos(r t) I - i sn (x sx + y sy + z sz)).

   Exact up to rounding — no series truncation, no squaring — and roughly
   an order of magnitude cheaper than the series [expi_at] below. *)
let expi2_at (h : float array) hoff (ts : float array) ti (dst : float array)
    doff =
  let t = Array.unsafe_get ts ti in
  let h00 = Array.unsafe_get h hoff
  and h11 = Array.unsafe_get h (hoff + 6) in
  let x = Array.unsafe_get h (hoff + 2)
  and y = -.Array.unsafe_get h (hoff + 3) in
  let h0 = 0.5 *. (h00 +. h11) and z = 0.5 *. (h00 -. h11) in
  let r = Stdlib.sqrt ((x *. x) +. (y *. y) +. (z *. z)) in
  let rt = r *. t in
  let co = Stdlib.cos rt in
  let sn = if r = 0.0 then t else Stdlib.sin rt /. r in
  (* M = cos(rt) I - i sn P with P = x sx + y sy + z sz *)
  let m00re = co and m00im = -.(sn *. z) in
  let m01re = -.(sn *. y) and m01im = -.(sn *. x) in
  let m10re = sn *. y and m10im = -.(sn *. x) in
  let m11re = co and m11im = sn *. z in
  (* global phase e^{-i t h0} *)
  let th = t *. h0 in
  let pre = Stdlib.cos th and pim = -.Stdlib.sin th in
  Array.unsafe_set dst doff ((pre *. m00re) -. (pim *. m00im));
  Array.unsafe_set dst (doff + 1) ((pre *. m00im) +. (pim *. m00re));
  Array.unsafe_set dst (doff + 2) ((pre *. m01re) -. (pim *. m01im));
  Array.unsafe_set dst (doff + 3) ((pre *. m01im) +. (pim *. m01re));
  Array.unsafe_set dst (doff + 4) ((pre *. m10re) -. (pim *. m10im));
  Array.unsafe_set dst (doff + 5) ((pre *. m10im) +. (pim *. m10re));
  Array.unsafe_set dst (doff + 6) ((pre *. m11re) -. (pim *. m11im));
  Array.unsafe_set dst (doff + 7) ((pre *. m11im) +. (pim *. m11re))

(* 1/k! for k = 0..12, the coefficients of the degree-12 Taylor
   polynomial of exp (k! is exact in a double, so each is correctly
   rounded). *)
let inv_fact =
  Array.init 13 (fun k ->
      let f = ref 1 in
      for j = 2 to k do
        f := !f * j
      done;
      1.0 /. float_of_int !f)

(* Series scratch: A, A^2, A^3, A^4 and two accumulators, each a
   [d x d] matrix of [2 d^2] floats. *)
let expi_scratch d = 12 * d * d

(* dst <- dst + c_(k+3) A^3 + c_(k+2) A^2 + c_(k+1) A + c_k I with
   c_j = [inv_fact.(j)] and the powers at [ws] offsets w, 2w (A^2, A^3)
   and 0 (A); the smallest terms are added first. *)
let add_block ~d k (ws : float array) (dst : float array) doff =
  let w = 2 * d * d in
  let c1 = Array.unsafe_get inv_fact (k + 1)
  and c2 = Array.unsafe_get inv_fact (k + 2)
  and c3 = Array.unsafe_get inv_fact (k + 3) in
  for i = 0 to w - 1 do
    Array.unsafe_set dst (doff + i)
      (Array.unsafe_get dst (doff + i)
      +. (c3 *. Array.unsafe_get ws ((2 * w) + i))
      +. (c2 *. Array.unsafe_get ws (w + i))
      +. (c1 *. Array.unsafe_get ws i))
  done;
  let c0 = Array.unsafe_get inv_fact k in
  for r = 0 to d - 1 do
    let j = doff + (2 * ((r * d) + r)) in
    Array.unsafe_set dst j (Array.unsafe_get dst j +. c0)
  done

(* dst <- exp(-i * t * H) for a [d x d] matrix H, with the time step
   read from [ts.(ti)].  Scales A = -i t H by 2^-s until |A|_1 <= 1/2,
   evaluates the degree-12 Taylor polynomial of exp(A) by
   Paterson-Stockmeyer,

     p(A) = B0 + A^4 (B1 + A^4 B2),
     B0 = c0 I + c1 A + c2 A^2 + c3 A^3,   B1 = c4 I + ... + c7 A^3,
     B2 = c8 I + ... + c11 A^3 + c12 A^4,

   which is 5 products (A^2, A^3, A^4 and two Horner steps) where the
   term-by-term series takes 12, then squares s times.  [ws] is
   caller-owned scratch of at least [expi_scratch d] floats, which [dst]
   must not overlap; [dst] may alias [h], which is read in full before
   [dst] is written.  Allocates nothing. *)
let expi_at ~d (h : float array) hoff (ts : float array) ti (dst : float array)
    doff (ws : float array) =
  let t = Array.unsafe_get ts ti in
  let w = 2 * d * d in
  (* one-norm (max column sum) picks the scaling power *)
  let norm = ref 0.0 in
  for c = 0 to d - 1 do
    let acc = ref 0.0 in
    for r = 0 to d - 1 do
      let i = hoff + (2 * ((r * d) + c)) in
      let re = Array.unsafe_get h i and im = Array.unsafe_get h (i + 1) in
      acc := !acc +. Stdlib.sqrt ((re *. re) +. (im *. im))
    done;
    if !acc > !norm then norm := !acc
  done;
  let norm = Float.abs t *. !norm in
  let sq =
    if norm <= 0.5 then 0
    else int_of_float (Float.ceil (Float.log2 (norm /. 0.5)))
  in
  let tau = t *. (1.0 /. Float.pow 2.0 (float_of_int sq)) in
  (* A = -i tau H at offset 0 *)
  for i = 0 to (d * d) - 1 do
    let re = Array.unsafe_get h (hoff + (2 * i))
    and im = Array.unsafe_get h (hoff + (2 * i) + 1) in
    Array.unsafe_set ws (2 * i) (tau *. im);
    Array.unsafe_set ws ((2 * i) + 1) (-.(tau *. re))
  done;
  let a2 = w and a3 = 2 * w and a4 = 3 * w and p = 4 * w and q = 5 * w in
  mul ~m:d ~n:d ~p:d ws 0 ws 0 ws a2;
  mul ~m:d ~n:d ~p:d ws a2 ws 0 ws a3;
  mul ~m:d ~n:d ~p:d ws a2 ws a2 ws a4;
  (* B2 at p *)
  let c12 = Array.unsafe_get inv_fact 12 in
  for i = 0 to w - 1 do
    Array.unsafe_set ws (p + i) (c12 *. Array.unsafe_get ws (a4 + i))
  done;
  add_block ~d 8 ws ws p;
  (* B1 + A^4 B2 at q, then B0 + A^4 (...) at p *)
  mul ~m:d ~n:d ~p:d ws a4 ws p ws q;
  add_block ~d 4 ws ws q;
  mul ~m:d ~n:d ~p:d ws a4 ws q ws p;
  add_block ~d 0 ws ws p;
  (* square back up, ping-ponging between p and q *)
  let cur = ref p and nxt = ref q in
  for _ = 1 to sq do
    mul ~m:d ~n:d ~p:d ws !cur ws !cur ws !nxt;
    let x = !cur in
    cur := !nxt;
    nxt := x
  done;
  Array.blit ws !cur dst doff w
