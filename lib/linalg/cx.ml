(* Complex scalar helpers on top of [Stdlib.Complex].

   All quantum-mechanical code in this repository manipulates complex
   amplitudes; this module collects the small set of scalar operations the
   matrix kernels need, with a few conventions:
   - [approx_equal] compares with an absolute tolerance (amplitudes are O(1)),
   - [cis theta] is exp(i*theta). *)

type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let i = Complex.i

let make re im : t = { Complex.re; im }
let re (z : t) = z.Complex.re
let im (z : t) = z.Complex.im
let of_float x : t = { Complex.re = x; im = 0.0 }

let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let neg = Complex.neg
let conj = Complex.conj
let norm = Complex.norm
let norm2 = Complex.norm2
let arg = Complex.arg
let sqrt = Complex.sqrt
let exp = Complex.exp

let scale s (z : t) : t = { Complex.re = s *. z.Complex.re; im = s *. z.Complex.im }

(* exp(i * theta) *)
let cis theta : t = { Complex.re = Stdlib.cos theta; im = Stdlib.sin theta }

let is_zero ?(eps = 1e-12) (z : t) = norm z < eps

let approx_equal ?(eps = 1e-9) (a : t) (b : t) = norm (sub a b) < eps

let pp ppf (z : t) =
  if Float.abs z.Complex.im < 1e-12 then Fmt.pf ppf "%.6g" z.Complex.re
  else Fmt.pf ppf "(%.6g%+.6gi)" z.Complex.re z.Complex.im

let to_string z = Fmt.str "%a" pp z
