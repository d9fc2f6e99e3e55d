(* Commutation-aware list scheduling / reordering, on the qubit-line
   model of [Lines].

   Dependencies: gate j depends on an earlier gate i iff they share a
   qubit and do not commute ([Peephole.commutes]: diagonal gates slide
   past each other, X-family gates slide through CX targets, ...).

   [commutation_aware] greedily re-emits gates by earliest achievable
   start time on weighted qubit lines (1q = 1, entangling = 6, virtual-Z =
   0, mirroring the hardware model's pulse-time ratios), so e.g. the ring
   of pairwise-commuting RZZ gates in QAOA re-orders into even/odd layers
   instead of a serial staircase.

   Soundness: a gate is only emitted once all its non-commuting
   predecessors are emitted, so the output order differs from the input
   only by swaps of commuting or disjoint gates. *)

let weight (op : Circuit.op) =
  if Gate.is_virtual op.Circuit.gate then 0.0
  else if Gate.arity op.Circuit.gate = 1 then 1.0
  else 6.0

let qubits (op : Circuit.op) = op.Circuit.qubits

let commutation_aware (c : Circuit.t) =
  let n = Circuit.n_qubits c in
  Circuit.of_ops n
    (Lines.list_order ~n ~qubits ~duration:weight ~commute:Peephole.commutes
       (Circuit.ops c))

(* Critical path of the weighted gates in program order: the latency
   proxy the ZX stage compares its candidates by. *)
let weighted_depth (c : Circuit.t) =
  int_of_float
    (snd
       (Lines.asap ~n:(Circuit.n_qubits c) ~qubits ~duration:weight
          (Circuit.ops c)))

(* Commutation-aware depth: length of the longest dependency chain. *)
let depth (c : Circuit.t) =
  let ops = Array.of_list (Circuit.ops c) in
  let deps = Lines.dependencies ~qubits ~commute:Peephole.commutes ops in
  let level = Array.make (Array.length ops) 1 in
  Array.iteri
    (fun i ds ->
      List.iter (fun d -> level.(i) <- max level.(i) (level.(d) + 1)) ds)
    deps;
  Array.fold_left max 0 level
