(* Parameterized circuit templates for VUG-based synthesis.

   A template is a CNOT skeleton dressed with variable single-qubit
   unitaries (VUGs, realized as U3 gates): one initial VUG per qubit, then
   after each CNOT a fresh VUG on each of its two qubits.  This is the
   QSearch layer structure; with enough CNOT layers it is universal. *)

open Epoc_circuit

type t = { n : int; cnots : (int * int) list (* (control, target) in order *) }

let root n = { n; cnots = [] }

let param_count t = (3 * t.n) + (6 * List.length t.cnots)

(* Successor templates: append one CNOT on any ordered qubit pair of the
   coupling graph (all-to-all here, matching the paper's all-pair VUG
   search on small blocks). *)
let successors t =
  let pairs = ref [] in
  for a = 0 to t.n - 1 do
    for b = 0 to t.n - 1 do
      if a <> b then pairs := (a, b) :: !pairs
    done
  done;
  List.rev_map (fun p -> { t with cnots = t.cnots @ [ p ] }) !pairs

(* Concrete circuit for a parameter assignment. *)
let to_circuit t (params : float array) =
  if Array.length params <> param_count t then
    invalid_arg "Template.to_circuit: wrong parameter count";
  let b = Circuit.Builder.create t.n in
  let k = ref 0 in
  let u3 q =
    let theta = params.(!k) and phi = params.(!k + 1) and lam = params.(!k + 2) in
    k := !k + 3;
    Circuit.Builder.add b (Gate.U3 (theta, phi, lam)) [ q ]
  in
  for q = 0 to t.n - 1 do
    u3 q
  done;
  List.iter
    (fun (c, tg) ->
      Circuit.Builder.add b Gate.CX [ c; tg ];
      u3 c;
      u3 tg)
    t.cnots;
  Circuit.Builder.to_circuit b

let unitary t params = Circuit.unitary (to_circuit t params)

(* Warm start: extend a parent's optimal parameters with near-identity
   VUGs for the freshly added CNOT layer.  QSearch-style seeding. *)
let extend_params (params : float array) =
  Array.append params (Array.make 6 1e-3)

let cnot_count t = List.length t.cnots
