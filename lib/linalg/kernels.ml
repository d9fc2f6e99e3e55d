(* Raw kernels over interleaved (re, im) float arrays at explicit offsets.

   Every dense complex kernel in this library — [Mat]'s destination-passing
   ops, [Expm]'s Taylor core and [Batch]'s multi-matrix ops — bottoms out
   here, on the same loop nests over the same flat storage.  That is the
   load-bearing property for the GRAPE batching contract: a batched op on
   matrix slice [i] executes the exact floating-point operation sequence of
   the corresponding single-matrix op, so batched and unbatched solves are
   bit-identical by construction rather than by careful re-verification.

   Contract: callers validate shapes and offsets; these kernels use
   unchecked accesses and assume every index below is in bounds.  A matrix
   of [r] rows and [c] cols occupies [2 * r * c] consecutive floats at its
   offset, row-major, (re, im) interleaved. *)

(* dst <- a * b for an [m x n] times [n x p] product.  [dst] must not
   overlap either input range.  Replicates the zero-skip accumulation
   order of the historical [Mat.mul_into] exactly. *)
let mul ~m ~n ~p (a : float array) aoff (b : float array) boff
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

(* tr(A) into [out.(oidx)], [out.(oidx + 1)]. *)
let trace ~d (a : float array) aoff (out : float array) oidx =
  out.(oidx) <- 0.0;
  out.(oidx + 1) <- 0.0;
  for r = 0 to d - 1 do
    let i = aoff + (2 * ((r * d) + r)) in
    out.(oidx) <- out.(oidx) +. Array.unsafe_get a i;
    out.(oidx + 1) <- out.(oidx + 1) +. Array.unsafe_get a (i + 1)
  done

(* Frobenius norm of [len] complex entries. *)
let frobenius ~len (a : float array) aoff =
  let acc = ref 0.0 in
  for i = aoff to aoff + (2 * len) - 1 do
    let x = Array.unsafe_get a i in
    acc := !acc +. (x *. x)
  done;
  Stdlib.sqrt !acc

(* dst <- dst + s * src over [len] complex entries, real scalar [s].
   Aliasing (dst == src at the same offset) is harmless. *)
let axpy_re ~len s (src : float array) soff (dst : float array) doff =
  for i = 0 to (2 * len) - 1 do
    Array.unsafe_set dst (doff + i)
      (Array.unsafe_get dst (doff + i)
      +. (s *. Array.unsafe_get src (soff + i)))
  done

(* As [axpy_re] with the scalar read from [ss.(si)].  Without flambda a
   non-inlined call boxes every float argument; the batched GRAPE loop
   calls this once per (control, slot, iteration), so the scalar travels
   through an unboxed float-array slot instead. *)
let axpy_re_at ~len (ss : float array) si (src : float array) soff
    (dst : float array) doff =
  let s = Array.unsafe_get ss si in
  for i = 0 to (2 * len) - 1 do
    Array.unsafe_set dst (doff + i)
      (Array.unsafe_get dst (doff + i)
      +. (s *. Array.unsafe_get src (soff + i)))
  done

(* dst <- s * src over [len] complex entries, real scalar [s]. *)
let scale_re ~len s (src : float array) soff (dst : float array) doff =
  for i = 0 to (2 * len) - 1 do
    Array.unsafe_set dst (doff + i) (s *. Array.unsafe_get src (soff + i))
  done

(* Write the [d x d] identity. *)
let set_identity ~d (dst : float array) doff =
  Array.fill dst doff (2 * d * d) 0.0;
  for r = 0 to d - 1 do
    dst.(doff + (2 * ((r * d) + r))) <- 1.0
  done

(* dst <- exp(-i * t * H) for a Hermitian 2x2 H, in closed form.

   Decompose H = h0 I + x sx + y sy + z sz over the Pauli basis (only the
   Hermitian part of the input is read: the two real diagonal entries and
   H01 = x - i y).  With r = |(x, y, z)| and sn = sin(r t) / r (limit t as
   r -> 0),

     exp(-i t H) = e^{-i t h0} (cos(r t) I - i sn (x sx + y sy + z sz)).

   Exact up to rounding — no series truncation, no squaring — and roughly
   an order of magnitude cheaper than the Taylor core it replaces in the
   dim-2 GRAPE hot path. *)
let expi2 (h : float array) hoff t (dst : float array) doff =
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

(* As [expi2] with the time step read from [ts.(ti)]; same no-float-args
   rationale as [axpy_re_at].  The body is duplicated rather than
   delegated — a call into [expi2] would re-box the scalar. *)
let expi2_at (h : float array) hoff (ts : float array) ti
    (dst : float array) doff =
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
  let m00re = co and m00im = -.(sn *. z) in
  let m01re = -.(sn *. y) and m01im = -.(sn *. x) in
  let m10re = sn *. y and m10im = -.(sn *. x) in
  let m11re = co and m11im = sn *. z in
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
