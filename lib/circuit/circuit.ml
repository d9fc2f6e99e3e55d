(* Circuit intermediate representation.

   A circuit is an ordered list of gate applications on [n] qubits.  The
   representation is immutable; passes produce new circuits.  Qubit 0 is the
   most significant bit of the 2^n-dimensional state index. *)

open Epoc_linalg

type op = { gate : Gate.t; qubits : int list }

type t = { n : int; ops : op list (* program order *) }

let n_qubits c = c.n
let ops c = c.ops
let length c = List.length c.ops

let empty n =
  if n <= 0 then invalid_arg "Circuit.empty: need at least one qubit";
  { n; ops = [] }

let check_op n { gate; qubits } =
  let k = Gate.arity gate in
  if List.length qubits <> k then
    invalid_arg
      (Fmt.str "Circuit: gate %s expects %d qubits, got %d" (Gate.name gate) k
         (List.length qubits));
  List.iter
    (fun q ->
      if q < 0 || q >= n then
        invalid_arg (Fmt.str "Circuit: qubit %d out of range [0,%d)" q n))
    qubits;
  if List.length (List.sort_uniq compare qubits) <> List.length qubits then
    invalid_arg "Circuit: duplicate qubit in gate application"

let of_ops n ops =
  List.iter (check_op n) ops;
  { n; ops }

let add c gate qubits =
  let op = { gate; qubits } in
  check_op c.n op;
  { c with ops = c.ops @ [ op ] }

(* Builder with O(1) appends for construction-heavy code paths. *)
module Builder = struct
  type builder = { n : int; mutable rev_ops : op list }

  let create n = { n; rev_ops = [] }

  let add b gate qubits =
    let op = { gate; qubits } in
    check_op b.n op;
    b.rev_ops <- op :: b.rev_ops

  let to_circuit b = { n = b.n; ops = List.rev b.rev_ops }
end

let append a b =
  if a.n <> b.n then invalid_arg "Circuit.append: qubit count mismatch";
  { n = a.n; ops = a.ops @ b.ops }

let inverse c =
  {
    c with
    ops =
      List.rev_map
        (fun op -> { op with gate = Gate.dagger op.gate })
        c.ops;
  }

(* Re-index qubits through [f]; [f] must be injective into [0, new_n). *)
let remap ~new_n ~f c =
  of_ops new_n
    (List.map (fun op -> { op with qubits = List.map f op.qubits }) c.ops)

(* --- statistics -------------------------------------------------------- *)

let depth c =
  int_of_float
    (snd
       (Lines.asap ~n:c.n ~qubits:(fun op -> op.qubits)
          ~duration:(fun _ -> 1.0) c.ops))

let count_if pred c = List.length (List.filter pred c.ops)

let gate_count c = List.length c.ops
let two_qubit_count c = count_if (fun op -> Gate.arity op.gate = 2) c
let multi_qubit_count c = count_if (fun op -> Gate.arity op.gate >= 2) c
let single_qubit_count c = count_if (fun op -> Gate.arity op.gate = 1) c

let count_gate name' c = count_if (fun op -> Gate.name op.gate = name') c

(* Qubits that interact with [q] through any multi-qubit gate. *)
let neighbors c q =
  List.fold_left
    (fun acc op ->
      if List.mem q op.qubits then
        List.fold_left
          (fun acc q' -> if q' <> q && not (List.mem q' acc) then q' :: acc else acc)
          acc op.qubits
      else acc)
    [] c.ops

let used_qubits c =
  let used = Array.make c.n false in
  List.iter (fun op -> List.iter (fun q -> used.(q) <- true) op.qubits) c.ops;
  List.filter (fun q -> used.(q)) (List.init c.n Fun.id)

(* --- simulation -------------------------------------------------------- *)

(* Apply gate [g] on [qubits] to the 2^n x m matrix [u] in place, i.e.
   u <- (G embedded on qubits) * u.  Cost: 2^n * m * 2^k amortized. *)
let apply_gate_inplace ~n (g : Mat.t) (qubits : int list) (u : Mat.t) =
  let k = List.length qubits in
  let dim = 1 lsl n and gd = 1 lsl k in
  if Mat.rows u <> dim then invalid_arg "apply_gate_inplace: dimension mismatch";
  if Mat.rows g <> gd then invalid_arg "apply_gate_inplace: gate dim mismatch";
  (* Bit position of qubit q in the row index (qubit 0 = MSB). *)
  let bitpos = Array.of_list (List.map (fun q -> n - 1 - q) qubits) in
  let target_mask = Array.fold_left (fun m b -> m lor (1 lsl b)) 0 bitpos in
  (* scatter.(i): row offset contributed by gate-local index i. The first
     listed qubit is the MSB of the gate-local index. *)
  let scatter =
    Array.init gd (fun i ->
        let acc = ref 0 in
        for j = 0 to k - 1 do
          if i land (1 lsl (k - 1 - j)) <> 0 then acc := !acc lor (1 lsl bitpos.(j))
        done;
        !acc)
  in
  let rows = Array.make gd 0 in
  let scratch = Mat.create gd (Mat.cols u) in
  for base = 0 to dim - 1 do
    if base land target_mask = 0 then begin
      for i = 0 to gd - 1 do
        rows.(i) <- base lor scatter.(i)
      done;
      Mat.mix_rows_inplace u ~rows ~coeff:g ~scratch
    end
  done

(* Full unitary of the circuit (2^n x 2^n).  Builds by applying each gate to
   an identity matrix, which is far cheaper than embedding each gate as a
   2^n matrix and multiplying. *)
let unitary c =
  let dim = 1 lsl c.n in
  let u = Mat.identity dim in
  List.iter (fun op -> apply_gate_inplace ~n:c.n (Gate.matrix op.gate) op.qubits u) c.ops;
  u

(* Apply circuit to a state vector (array of 2^n amplitudes). *)
let apply_to_state c state =
  let dim = 1 lsl c.n in
  if Array.length state <> dim then invalid_arg "apply_to_state: bad dimension";
  let u = Mat.init dim 1 (fun r _ -> state.(r)) in
  List.iter (fun op -> apply_gate_inplace ~n:c.n (Gate.matrix op.gate) op.qubits u) c.ops;
  Array.init dim (fun r -> Mat.get u r 0)

let equal_unitary ?(eps = 1e-7) a b =
  a.n = b.n && a.n <= 12 && Mat.equal_up_to_phase ~eps (unitary a) (unitary b)

(* --- pretty printing --------------------------------------------------- *)

let pp_op ppf op =
  Fmt.pf ppf "%s %a" (Gate.to_string op.gate)
    Fmt.(list ~sep:comma int)
    op.qubits

let pp ppf c =
  Fmt.pf ppf "@[<v>circuit on %d qubits (%d ops, depth %d):@,%a@]" c.n
    (gate_count c) (depth c)
    Fmt.(list ~sep:cut pp_op)
    c.ops

let to_string c = Fmt.str "%a" pp c
