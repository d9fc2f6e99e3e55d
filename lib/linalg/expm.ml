(* Matrix exponential exp(-i t H) of a Hermitian H, the GRAPE slot
   propagator.

   For GRAPE we exponentiate -i*dt*H whose norm is small (dt ~ ns, |H| ~
   rad/ns), so after scaling by 2^-s the degree-12 Taylor polynomial
   ([Kernels.expi_at], evaluated by Paterson-Stockmeyer in 5 products)
   is accurate to machine precision; the 2x2 case has an exact closed
   form ([Kernels.expi2_at]).  The Hermitian path in [Eig] is the
   reference implementation used in tests.

   [expi_hermitian_into] runs entirely on a caller-provided [scratch] (the
   series workspace plus a float slot for the time step, which would
   otherwise be boxed on the way into the kernel), so the GRAPE inner loop
   — one exponential per slot per iteration — allocates nothing. *)

type scratch = { dim : int; ws : float array; t : float array }

let scratch dim =
  if dim <= 0 then invalid_arg "Expm.scratch: non-positive dim";
  { dim; ws = Array.make (Kernels.expi_scratch dim) 0.0; t = [| 0.0 |] }

(* dst <- exp(-i * t * h) for Hermitian h.  At dim 2 only the Hermitian
   part of [h] is read. *)
let expi_hermitian_into (s : scratch) (h : Mat.t) (t : float) ~(dst : Mat.t) =
  let d = Mat.rows h in
  if Mat.cols h <> d || Mat.rows dst <> d || Mat.cols dst <> d then
    invalid_arg "Expm.expi_hermitian_into: non-square or mismatched dst";
  if s.dim <> d then invalid_arg "Expm.expi_hermitian_into: scratch dim mismatch";
  s.t.(0) <- t;
  if d = 2 then Kernels.expi2_at (Mat.data h) 0 s.t 0 (Mat.data dst) 0
  else Kernels.expi_at ~d (Mat.data h) 0 s.t 0 (Mat.data dst) 0 s.ws

(* exp(-i * t * h) for Hermitian h. *)
let expi_hermitian (h : Mat.t) (t : float) =
  if not (Mat.is_square h) then invalid_arg "Expm.expi_hermitian: non-square";
  let n = Mat.rows h in
  let dst = Mat.create n n in
  expi_hermitian_into (scratch n) h t ~dst;
  dst
