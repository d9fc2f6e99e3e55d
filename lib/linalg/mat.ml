(* Dense complex matrices, row-major, unboxed interleaved storage.

   This is the workhorse of the whole repository: circuit unitaries, ZX
   verification, synthesis targets and GRAPE propagators are all values of
   this type.  Dimensions stay small (at most 2^8 x 2^8 in extreme sweeps,
   usually 2^2..2^4), so the representation is tuned for the GRAPE inner
   loop rather than asymptotics: a single flat [float array] of length
   [2 * rows * cols] holding (re, im) pairs.  OCaml specializes float
   arrays to flat unboxed storage, so every kernel below runs on raw
   doubles with zero per-element allocation — unlike the previous
   [Complex.t array] layout where each element access chased a pointer to
   a boxed record and every arithmetic op allocated.

   Two API layers:
   - the original functional API ([mul], [add], [adjoint], ...) returning
     fresh matrices, used by cold paths (circuit simulation, ZX, tests);
   - destination-passing kernels ([mul_into], [add_into], ...) used by the
     hot paths (GRAPE, Expm) to reuse preallocated scratch buffers.

   Aliasing contract for the [_into] kernels: [dst] may alias an input
   only where documented ([add_into], [sub_into], [scale_re_into],
   [scale_into], [add_scaled_re_into] allow full aliasing because they are
   pure element-wise maps; [mul_into] and [adjoint_into] require [dst] to
   be distinct from both inputs and enforce it with a physical-equality
   check). *)

type t = { rows : int; cols : int; data : float array }

let rows m = m.rows
let cols m = m.cols

(* Raw storage view; see the .mli for the (re, im) interleaving contract.
   [Expm] and the solvers use it to run fused [Kernels] ops on [Mat]
   operands without copies. *)
let data m = m.data

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: non-positive dims";
  { rows; cols; data = Array.make (2 * rows * cols) 0.0 }

let get m r c =
  let i = 2 * ((r * m.cols) + c) in
  { Complex.re = m.data.(i); im = m.data.(i + 1) }

let set m r c (v : Complex.t) =
  let i = 2 * ((r * m.cols) + c) in
  m.data.(i) <- v.Complex.re;
  m.data.(i + 1) <- v.Complex.im

let init rows cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.init: non-positive dims";
  let m = create rows cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      set m r c (f r c)
    done
  done;
  m

let copy m = { m with data = Array.copy m.data }

let zeros rows cols = create rows cols

let identity n =
  let m = create n n in
  for r = 0 to n - 1 do
    m.data.(2 * ((r * n) + r)) <- 1.0
  done;
  m

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length a.(0) in
  init rows cols (fun r c -> a.(r).(c))

let dims_equal a b = a.rows = b.rows && a.cols = b.cols

let map f m =
  let out = create m.rows m.cols in
  let n = m.rows * m.cols in
  for i = 0 to n - 1 do
    let z = f { Complex.re = m.data.(2 * i); im = m.data.((2 * i) + 1) } in
    out.data.(2 * i) <- z.Complex.re;
    out.data.((2 * i) + 1) <- z.Complex.im
  done;
  out

let map2 f a b =
  if not (dims_equal a b) then invalid_arg "Mat.map2: dimension mismatch";
  let out = create a.rows a.cols in
  let n = a.rows * a.cols in
  for i = 0 to n - 1 do
    let za = { Complex.re = a.data.(2 * i); im = a.data.((2 * i) + 1) } in
    let zb = { Complex.re = b.data.(2 * i); im = b.data.((2 * i) + 1) } in
    let z = f za zb in
    out.data.(2 * i) <- z.Complex.re;
    out.data.((2 * i) + 1) <- z.Complex.im
  done;
  out

(* --- destination-passing kernels --------------------------------------- *)

let check_same_dims name a dst =
  if not (dims_equal a dst) then invalid_arg (name ^ ": dimension mismatch")

let copy_into ~src ~dst =
  check_same_dims "Mat.copy_into" src dst;
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let fill_zero m = Array.fill m.data 0 (Array.length m.data) 0.0

let set_identity m =
  if m.rows <> m.cols then invalid_arg "Mat.set_identity: non-square";
  fill_zero m;
  for r = 0 to m.rows - 1 do
    m.data.(2 * ((r * m.cols) + r)) <- 1.0
  done

(* dst <- a + b; dst may alias a and/or b. *)
let add_into a b ~dst =
  check_same_dims "Mat.add_into" a b;
  check_same_dims "Mat.add_into" a dst;
  let n = Array.length a.data in
  for i = 0 to n - 1 do
    dst.data.(i) <- a.data.(i) +. b.data.(i)
  done

(* dst <- a - b; dst may alias a and/or b. *)
let sub_into a b ~dst =
  check_same_dims "Mat.sub_into" a b;
  check_same_dims "Mat.sub_into" a dst;
  let n = Array.length a.data in
  for i = 0 to n - 1 do
    dst.data.(i) <- a.data.(i) -. b.data.(i)
  done

(* dst <- s * m for real s; dst may alias m. *)
let scale_re_into s m ~dst =
  check_same_dims "Mat.scale_re_into" m dst;
  let n = Array.length m.data in
  for i = 0 to n - 1 do
    dst.data.(i) <- s *. m.data.(i)
  done

(* dst <- s * m for complex s; dst may alias m. *)
let scale_into (s : Complex.t) m ~dst =
  check_same_dims "Mat.scale_into" m dst;
  let sre = s.Complex.re and sim = s.Complex.im in
  let n = Array.length m.data / 2 in
  for i = 0 to n - 1 do
    let re = m.data.(2 * i) and im = m.data.((2 * i) + 1) in
    dst.data.(2 * i) <- (sre *. re) -. (sim *. im);
    dst.data.((2 * i) + 1) <- (sre *. im) +. (sim *. re)
  done

(* dst <- dst + s * m for real s; the GRAPE Hamiltonian-assembly axpy. *)
let add_scaled_re_into s m ~dst =
  check_same_dims "Mat.add_scaled_re_into" m dst;
  let n = Array.length m.data in
  for i = 0 to n - 1 do
    dst.data.(i) <- dst.data.(i) +. (s *. m.data.(i))
  done

(* dst <- a * b; dst must not alias a or b (checked). *)
let mul_into a b ~dst =
  if a.cols <> b.rows then invalid_arg "Mat.mul_into: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Mat.mul_into: bad destination dims";
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Mat.mul_into: dst aliases an input";
  Kernels.mul ~m:a.rows ~n:a.cols ~p:b.cols a.data 0 b.data 0 dst.data 0

(* dst <- conjugate transpose of m; dst must not alias m (checked). *)
let adjoint_into m ~dst =
  if dst.rows <> m.cols || dst.cols <> m.rows then
    invalid_arg "Mat.adjoint_into: bad destination dims";
  if dst.data == m.data then invalid_arg "Mat.adjoint_into: dst aliases input";
  for r = 0 to m.rows - 1 do
    for c = 0 to m.cols - 1 do
      let si = 2 * ((r * m.cols) + c) in
      let di = 2 * ((c * dst.cols) + r) in
      dst.data.(di) <- m.data.(si);
      dst.data.(di + 1) <- -.m.data.(si + 1)
    done
  done

(* In-place row mixing: u[rows.(i), :] <- sum_j coeff[i,j] * u[rows.(j), :]
   simultaneously for all i.  This is the gate-application primitive of the
   circuit simulator: [rows] selects the amplitudes touched by a k-qubit
   gate and [coeff] is its 2^k x 2^k matrix.  [scratch] must be an
   (Array.length rows) x (cols u) matrix and must not alias [u] or
   [coeff]. *)
let mix_rows_inplace u ~rows ~(coeff : t) ~(scratch : t) =
  let gd = Array.length rows in
  if coeff.rows <> gd || coeff.cols <> gd then
    invalid_arg "Mat.mix_rows_inplace: coeff dims mismatch";
  if scratch.rows < gd || scratch.cols <> u.cols then
    invalid_arg "Mat.mix_rows_inplace: bad scratch dims";
  if scratch.data == u.data || scratch.data == coeff.data then
    invalid_arg "Mat.mix_rows_inplace: scratch aliases an input";
  let w = 2 * u.cols in
  for i = 0 to gd - 1 do
    Array.blit u.data (rows.(i) * w) scratch.data (i * w) w
  done;
  for i = 0 to gd - 1 do
    let ubase = rows.(i) * w in
    for j = 0 to gd - 1 do
      let ci = 2 * ((i * gd) + j) in
      let cre = coeff.data.(ci) and cim = coeff.data.(ci + 1) in
      let sbase = j * w in
      if j = 0 then
        (* first term overwrites the destination row *)
        for c = 0 to u.cols - 1 do
          let sre = scratch.data.(sbase + (2 * c))
          and sim = scratch.data.(sbase + (2 * c) + 1) in
          u.data.(ubase + (2 * c)) <- (cre *. sre) -. (cim *. sim);
          u.data.(ubase + (2 * c) + 1) <- (cre *. sim) +. (cim *. sre)
        done
      else if cre <> 0.0 || cim <> 0.0 then
        for c = 0 to u.cols - 1 do
          let sre = scratch.data.(sbase + (2 * c))
          and sim = scratch.data.(sbase + (2 * c) + 1) in
          u.data.(ubase + (2 * c)) <-
            u.data.(ubase + (2 * c)) +. ((cre *. sre) -. (cim *. sim));
          u.data.(ubase + (2 * c) + 1) <-
            u.data.(ubase + (2 * c) + 1) +. ((cre *. sim) +. (cim *. sre))
        done
    done
  done

(* --- functional API on top of the kernels ------------------------------ *)

let add a b =
  let dst = create a.rows a.cols in
  add_into a b ~dst;
  dst

let sub a b =
  let dst = create a.rows a.cols in
  sub_into a b ~dst;
  dst

let scale s m =
  let dst = create m.rows m.cols in
  scale_into s m ~dst;
  dst

let scale_re s m =
  let dst = create m.rows m.cols in
  scale_re_into s m ~dst;
  dst

let transpose m =
  let dst = create m.cols m.rows in
  for r = 0 to m.rows - 1 do
    for c = 0 to m.cols - 1 do
      let si = 2 * ((r * m.cols) + c) in
      let di = 2 * ((c * m.rows) + r) in
      dst.data.(di) <- m.data.(si);
      dst.data.(di + 1) <- m.data.(si + 1)
    done
  done;
  dst

let conj m =
  let dst = copy m in
  let n = Array.length m.data / 2 in
  for i = 0 to n - 1 do
    dst.data.((2 * i) + 1) <- -.dst.data.((2 * i) + 1)
  done;
  dst

(* Conjugate transpose. *)
let adjoint m =
  let dst = create m.cols m.rows in
  adjoint_into m ~dst;
  dst

let mul a b =
  let dst = create a.rows b.cols in
  mul_into a b ~dst;
  dst

(* Matrix-vector product, vectors as plain arrays. *)
let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.rows (fun r ->
      let racc = ref 0.0 and iacc = ref 0.0 in
      let base = 2 * r * m.cols in
      for c = 0 to m.cols - 1 do
        let mre = m.data.(base + (2 * c)) and mim = m.data.(base + (2 * c) + 1) in
        let z = v.(c) in
        racc := !racc +. ((mre *. z.Complex.re) -. (mim *. z.Complex.im));
        iacc := !iacc +. ((mre *. z.Complex.im) +. (mim *. z.Complex.re))
      done;
      { Complex.re = !racc; im = !iacc })

(* Kronecker (tensor) product; index convention [kron a b] has [a] on the
   most significant bits, matching the usual |q0 q1 ... > ordering where q0
   is the leftmost / most significant qubit. *)
let kron a b =
  let out = create (a.rows * b.rows) (a.cols * b.cols) in
  let ocols = a.cols * b.cols in
  for ar = 0 to a.rows - 1 do
    for ac = 0 to a.cols - 1 do
      let si = 2 * ((ar * a.cols) + ac) in
      let sre = a.data.(si) and sim = a.data.(si + 1) in
      if sre <> 0.0 || sim <> 0.0 then
        for br = 0 to b.rows - 1 do
          let bbase = 2 * br * b.cols in
          let obase = 2 * ((((ar * b.rows) + br) * ocols) + (ac * b.cols)) in
          for bc = 0 to b.cols - 1 do
            let bre = b.data.(bbase + (2 * bc)) and bim = b.data.(bbase + (2 * bc) + 1) in
            out.data.(obase + (2 * bc)) <- (sre *. bre) -. (sim *. bim);
            out.data.(obase + (2 * bc) + 1) <- (sre *. bim) +. (sim *. bre)
          done
        done
    done
  done;
  out

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: non-square";
  let racc = ref 0.0 and iacc = ref 0.0 in
  for r = 0 to m.rows - 1 do
    let i = 2 * ((r * m.cols) + r) in
    racc := !racc +. m.data.(i);
    iacc := !iacc +. m.data.(i + 1)
  done;
  { Complex.re = !racc; im = !iacc }

(* tr(A * B) for square A, B without materializing the product; the GRAPE
   gradient inner product.  (A B)_{rr} = sum_c A_{rc} B_{cr}. *)
let trace_mul a b =
  if a.rows <> a.cols || not (dims_equal a b) then
    invalid_arg "Mat.trace_mul: need equal square dims";
  let out = [| 0.0; 0.0 |] in
  Kernels.trace_mul ~d:a.rows a.data 0 b.data 0 out 0;
  { Complex.re = out.(0); im = out.(1) }

(* One-norm (max column sum); used by [Expm] to pick the scaling power. *)
let one_norm m =
  let best = ref 0.0 in
  for c = 0 to m.cols - 1 do
    let acc = ref 0.0 in
    for r = 0 to m.rows - 1 do
      let i = 2 * ((r * m.cols) + c) in
      let re = m.data.(i) and im = m.data.(i + 1) in
      acc := !acc +. Stdlib.sqrt ((re *. re) +. (im *. im))
    done;
    if !acc > !best then best := !acc
  done;
  !best

let max_abs_diff a b =
  if not (dims_equal a b) then invalid_arg "Mat.max_abs_diff: dimension mismatch";
  let best = ref 0.0 in
  let n = Array.length a.data / 2 in
  for i = 0 to n - 1 do
    let re = a.data.(2 * i) -. b.data.(2 * i) in
    let im = a.data.((2 * i) + 1) -. b.data.((2 * i) + 1) in
    let n2 = (re *. re) +. (im *. im) in
    if n2 > !best then best := n2
  done;
  Stdlib.sqrt !best

let approx_equal ?(eps = 1e-9) a b = dims_equal a b && max_abs_diff a b < eps

let is_square m = m.rows = m.cols

let is_unitary ?(eps = 1e-9) m =
  is_square m && approx_equal ~eps (mul (adjoint m) m) (identity m.rows)

let is_hermitian ?(eps = 1e-9) m = is_square m && approx_equal ~eps m (adjoint m)

let is_diagonal ?(eps = 1e-9) m =
  let ok = ref (is_square m) in
  let eps2 = eps *. eps in
  for r = 0 to m.rows - 1 do
    for c = 0 to m.cols - 1 do
      if r <> c then begin
        let i = 2 * ((r * m.cols) + c) in
        let re = m.data.(i) and im = m.data.(i + 1) in
        if (re *. re) +. (im *. im) > eps2 then ok := false
      end
    done
  done;
  !ok

(* --- global-phase-invariant comparisons ------------------------------- *)

(* Hilbert-Schmidt overlap |tr(A^dag B)| / n, equal to 1 iff A = e^{i phi} B
   for unitary A, B. *)
let hs_fidelity a b =
  if not (dims_equal a b) || not (is_square a) then
    invalid_arg "Mat.hs_fidelity: need equal square dims";
  let f = [| 0.0; 0.0 |] in
  Kernels.dotc ~len:(a.rows * a.cols) a.data 0 b.data 0 f 0;
  Stdlib.sqrt ((f.(0) *. f.(0)) +. (f.(1) *. f.(1))) /. float_of_int a.rows

(* Distance in [0,1]; 0 iff equal up to global phase (for unitaries). *)
let hs_distance a b = Float.max 0.0 (1.0 -. hs_fidelity a b)

let equal_up_to_phase ?(eps = 1e-7) a b =
  dims_equal a b && is_square a && hs_distance a b < eps

(* Normalize global phase: rotate so the entry of largest magnitude is real
   positive.  Used for pulse-library fingerprints. *)
let canonical_phase m =
  let bre = ref 0.0 and bim = ref 0.0 and bestn2 = ref 0.0 in
  let n = Array.length m.data / 2 in
  for i = 0 to n - 1 do
    let re = m.data.(2 * i) and im = m.data.((2 * i) + 1) in
    let n2 = (re *. re) +. (im *. im) in
    if n2 > !bestn2 then begin
      bestn2 := n2;
      bre := re;
      bim := im
    end
  done;
  let bestn = Stdlib.sqrt !bestn2 in
  if bestn < 1e-12 then copy m
  else begin
    (* phase = conj(best) / |best| *)
    let pre = !bre /. bestn and pim = -. !bim /. bestn in
    let dst = create m.rows m.cols in
    for i = 0 to n - 1 do
      let re = m.data.(2 * i) and im = m.data.((2 * i) + 1) in
      dst.data.(2 * i) <- (pre *. re) -. (pim *. im);
      dst.data.((2 * i) + 1) <- (pre *. im) +. (pim *. re)
    done;
    dst
  end

let pp ppf m =
  Fmt.pf ppf "@[<v>";
  for r = 0 to m.rows - 1 do
    Fmt.pf ppf "[";
    for c = 0 to m.cols - 1 do
      if c > 0 then Fmt.pf ppf ", ";
      Cx.pp ppf (get m r c)
    done;
    Fmt.pf ppf "]";
    if r < m.rows - 1 then Fmt.cut ppf ()
  done;
  Fmt.pf ppf "@]"

let to_string m = Fmt.str "%a" pp m
