(** Complex scalar helpers on top of [Stdlib.Complex].

    Conventions: {!approx_equal} compares with an absolute tolerance
    (quantum amplitudes are O(1)); {!cis}[ theta] is [exp(i * theta)].
    Nothing here raises: these are total wrappers over IEEE float
    arithmetic. *)

type t = Complex.t

val zero : t
val one : t
val i : t
val make : float -> float -> t
val re : t -> float
val im : t -> float
val of_float : float -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val conj : t -> t
val norm : t -> float
val norm2 : t -> float
val arg : t -> float
val sqrt : t -> t
val exp : t -> t
val scale : float -> t -> t
val cis : float -> t
val is_zero : ?eps:float -> t -> bool
val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
