(* Quantum gate set.

   Named gates cover the QASMBench/OpenQASM-2 vocabulary; [Unitary] carries
   an arbitrary k-qubit matrix and is how synthesis results (variable
   unitary gates, VUGs) and regrouped blocks flow through the pipeline.

   Convention: qubit 0 of a gate is the most significant bit of its matrix
   index, matching |q0 q1 ... qk-1> basis ordering. *)

open Epoc_linalg

type t =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | SX
  | SXdg
  | RX of float
  | RY of float
  | RZ of float
  | Phase of float (* diag(1, e^{i theta}); OpenQASM u1/p *)
  | U3 of float * float * float (* theta, phi, lambda *)
  | CX
  | CY
  | CZ
  | CH
  | SWAP
  | ISWAP
  | CRX of float
  | CRY of float
  | CRZ of float
  | CPhase of float
  | RXX of float
  | RYY of float
  | RZZ of float
  | CCX
  | CCZ
  | CSWAP
  | Unitary of { name : string; matrix : Mat.t }

let arity = function
  | I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | RX _ | RY _ | RZ _
  | Phase _ | U3 _ ->
      1
  | CX | CY | CZ | CH | SWAP | ISWAP | CRX _ | CRY _ | CRZ _ | CPhase _
  | RXX _ | RYY _ | RZZ _ ->
      2
  | CCX | CCZ | CSWAP -> 3
  | Unitary { matrix; _ } ->
      let n = Mat.rows matrix in
      let rec log2 acc m = if m <= 1 then acc else log2 (acc + 1) (m / 2) in
      log2 0 n

let name = function
  | I -> "id"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | SX -> "sx"
  | SXdg -> "sxdg"
  | RX _ -> "rx"
  | RY _ -> "ry"
  | RZ _ -> "rz"
  | Phase _ -> "p"
  | U3 _ -> "u3"
  | CX -> "cx"
  | CY -> "cy"
  | CZ -> "cz"
  | CH -> "ch"
  | SWAP -> "swap"
  | ISWAP -> "iswap"
  | CRX _ -> "crx"
  | CRY _ -> "cry"
  | CRZ _ -> "crz"
  | CPhase _ -> "cp"
  | RXX _ -> "rxx"
  | RYY _ -> "ryy"
  | RZZ _ -> "rzz"
  | CCX -> "ccx"
  | CCZ -> "ccz"
  | CSWAP -> "cswap"
  | Unitary { name; _ } -> name

let params = function
  | RX a | RY a | RZ a | Phase a | CRX a | CRY a | CRZ a | CPhase a | RXX a
  | RYY a | RZZ a ->
      [ a ]
  | U3 (a, b, c) -> [ a; b; c ]
  | _ -> []

(* The named gate of a name and parameter list: the inverse of [name]
   and [params], so [of_name (name g) (params g) = Some g] for every
   constructor but [Unitary].  The one gate-name table: the QASM parser
   adds its aliases on top, the synthesis store its [Unitary] fallback. *)
let of_name name params =
  match (name, params) with
  | "id", [] -> Some I
  | "x", [] -> Some X
  | "y", [] -> Some Y
  | "z", [] -> Some Z
  | "h", [] -> Some H
  | "s", [] -> Some S
  | "sdg", [] -> Some Sdg
  | "t", [] -> Some T
  | "tdg", [] -> Some Tdg
  | "sx", [] -> Some SX
  | "sxdg", [] -> Some SXdg
  | "rx", [ a ] -> Some (RX a)
  | "ry", [ a ] -> Some (RY a)
  | "rz", [ a ] -> Some (RZ a)
  | "p", [ a ] -> Some (Phase a)
  | "u3", [ a; b; c ] -> Some (U3 (a, b, c))
  | "cx", [] -> Some CX
  | "cy", [] -> Some CY
  | "cz", [] -> Some CZ
  | "ch", [] -> Some CH
  | "swap", [] -> Some SWAP
  | "iswap", [] -> Some ISWAP
  | "crx", [ a ] -> Some (CRX a)
  | "cry", [ a ] -> Some (CRY a)
  | "crz", [ a ] -> Some (CRZ a)
  | "cp", [ a ] -> Some (CPhase a)
  | "rxx", [ a ] -> Some (RXX a)
  | "ryy", [ a ] -> Some (RYY a)
  | "rzz", [ a ] -> Some (RZZ a)
  | "ccx", [] -> Some CCX
  | "ccz", [] -> Some CCZ
  | "cswap", [] -> Some CSWAP
  | _ -> None

let to_string g =
  match params g with
  | [] -> name g
  | ps -> Fmt.str "%s(%a)" (name g) Fmt.(list ~sep:(any ",") (fmt "%.4g")) ps

(* --- matrices ---------------------------------------------------------- *)

let c re im = Cx.make re im
let r x = Cx.of_float x

let mat_of_2x2 a b cc d = Mat.of_arrays [| [| a; b |]; [| cc; d |] |]

let u3_matrix theta phi lambda =
  let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
  mat_of_2x2 (r ct)
    (Cx.neg (Cx.mul (Cx.cis lambda) (r st)))
    (Cx.mul (Cx.cis phi) (r st))
    (Cx.mul (Cx.cis (phi +. lambda)) (r ct))

(* Control the 2x2 [u] on the low qubit: |0><0| (x) I + |1><1| (x) u. *)
let controlled u =
  let m = Mat.identity 4 in
  for i = 0 to 1 do
    for j = 0 to 1 do
      Mat.set m (2 + i) (2 + j) (Mat.get u i j)
    done
  done;
  m

let rec matrix = function
  | I -> Mat.identity 2
  | X -> mat_of_2x2 Cx.zero Cx.one Cx.one Cx.zero
  | Y -> mat_of_2x2 Cx.zero (c 0.0 (-1.0)) (c 0.0 1.0) Cx.zero
  | Z -> mat_of_2x2 Cx.one Cx.zero Cx.zero (r (-1.0))
  | H ->
      let s = 1.0 /. sqrt 2.0 in
      mat_of_2x2 (r s) (r s) (r s) (r (-.s))
  | S -> mat_of_2x2 Cx.one Cx.zero Cx.zero (c 0.0 1.0)
  | Sdg -> mat_of_2x2 Cx.one Cx.zero Cx.zero (c 0.0 (-1.0))
  | T -> mat_of_2x2 Cx.one Cx.zero Cx.zero (Cx.cis (Float.pi /. 4.0))
  | Tdg -> mat_of_2x2 Cx.one Cx.zero Cx.zero (Cx.cis (-.Float.pi /. 4.0))
  | SX ->
      (* sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]] *)
      mat_of_2x2 (c 0.5 0.5) (c 0.5 (-0.5)) (c 0.5 (-0.5)) (c 0.5 0.5)
  | SXdg -> mat_of_2x2 (c 0.5 (-0.5)) (c 0.5 0.5) (c 0.5 0.5) (c 0.5 (-0.5))
  | RX theta ->
      let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
      mat_of_2x2 (r ct) (c 0.0 (-.st)) (c 0.0 (-.st)) (r ct)
  | RY theta ->
      let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
      mat_of_2x2 (r ct) (r (-.st)) (r st) (r ct)
  | RZ theta ->
      mat_of_2x2 (Cx.cis (-.theta /. 2.0)) Cx.zero Cx.zero (Cx.cis (theta /. 2.0))
  | Phase theta -> mat_of_2x2 Cx.one Cx.zero Cx.zero (Cx.cis theta)
  | U3 (a, b, cc) -> u3_matrix a b cc
  | CX -> controlled (matrix X)
  | CY -> controlled (matrix Y)
  | CZ -> controlled (matrix Z)
  | CH -> controlled (matrix H)
  | SWAP ->
      Mat.of_arrays
        [|
          [| Cx.one; Cx.zero; Cx.zero; Cx.zero |];
          [| Cx.zero; Cx.zero; Cx.one; Cx.zero |];
          [| Cx.zero; Cx.one; Cx.zero; Cx.zero |];
          [| Cx.zero; Cx.zero; Cx.zero; Cx.one |];
        |]
  | ISWAP ->
      Mat.of_arrays
        [|
          [| Cx.one; Cx.zero; Cx.zero; Cx.zero |];
          [| Cx.zero; Cx.zero; c 0.0 1.0; Cx.zero |];
          [| Cx.zero; c 0.0 1.0; Cx.zero; Cx.zero |];
          [| Cx.zero; Cx.zero; Cx.zero; Cx.one |];
        |]
  | CRX a -> controlled (matrix (RX a))
  | CRY a -> controlled (matrix (RY a))
  | CRZ a -> controlled (matrix (RZ a))
  | CPhase a -> controlled (matrix (Phase a))
  | RXX theta -> two_qubit_rotation (matrix X) theta
  | RYY theta -> two_qubit_rotation (matrix Y) theta
  | RZZ theta -> two_qubit_rotation (matrix Z) theta
  | CCX ->
      let m = Mat.identity 8 in
      Mat.set m 6 6 Cx.zero;
      Mat.set m 7 7 Cx.zero;
      Mat.set m 6 7 Cx.one;
      Mat.set m 7 6 Cx.one;
      m
  | CCZ ->
      let m = Mat.identity 8 in
      Mat.set m 7 7 (r (-1.0));
      m
  | CSWAP ->
      let m = Mat.identity 8 in
      (* swap targets when control (MSB) is 1: |101> <-> |110> *)
      Mat.set m 5 5 Cx.zero;
      Mat.set m 6 6 Cx.zero;
      Mat.set m 5 6 Cx.one;
      Mat.set m 6 5 Cx.one;
      m
  | Unitary { matrix; _ } -> matrix

(* exp(-i theta/2 P(x)P) for a 1-qubit Pauli P: cos(t/2) I - i sin(t/2) P(x)P *)
and two_qubit_rotation p theta =
  let pp = Mat.kron p p in
  let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
  Mat.add
    (Mat.scale (r ct) (Mat.identity 4))
    (Mat.scale (c 0.0 (-.st)) pp)

let dagger = function
  | I -> I
  | X -> X
  | Y -> Y
  | Z -> Z
  | H -> H
  | S -> Sdg
  | Sdg -> S
  | T -> Tdg
  | Tdg -> T
  | SX -> SXdg
  | SXdg -> SX
  | RX a -> RX (-.a)
  | RY a -> RY (-.a)
  | RZ a -> RZ (-.a)
  | Phase a -> Phase (-.a)
  | U3 (t, p, l) -> U3 (-.t, -.l, -.p)
  | CX -> CX
  | CY -> CY
  | CZ -> CZ
  | CH -> CH
  | SWAP -> SWAP
  | ISWAP -> Unitary { name = "iswapdg"; matrix = Mat.adjoint (matrix ISWAP) }
  | CRX a -> CRX (-.a)
  | CRY a -> CRY (-.a)
  | CRZ a -> CRZ (-.a)
  | CPhase a -> CPhase (-.a)
  | RXX a -> RXX (-.a)
  | RYY a -> RYY (-.a)
  | RZZ a -> RZZ (-.a)
  | CCX -> CCX
  | CCZ -> CCZ
  | CSWAP -> CSWAP
  | Unitary { name; matrix } ->
      Unitary { name = name ^ "dg"; matrix = Mat.adjoint matrix }

(* Structural equality good enough for cancellation passes: compares
   constructors and parameters, and matrices for [Unitary]. *)
let equal a b =
  match (a, b) with
  | Unitary u, Unitary v -> Mat.approx_equal u.matrix v.matrix
  | _ -> a = b

let is_self_inverse g = equal g (dagger g)

(* Gate classification used by schedulers and optimizers. *)
let is_diagonal = function
  | I | Z | S | Sdg | T | Tdg | RZ _ | Phase _ | CZ | CRZ _ | CPhase _ | RZZ _
  | CCZ ->
      true
  | _ -> false

(* Z-family frame updates: virtual on transmon stacks, so every timing
   model prices them at zero. *)
let is_virtual = function
  | I | Z | S | Sdg | T | Tdg | RZ _ | Phase _ -> true
  | _ -> false

let is_clifford = function
  | I | X | Y | Z | H | S | Sdg | SX | SXdg | CX | CY | CZ | SWAP | ISWAP ->
      true
  | _ -> false
