(* Seeded input generators.  The program only ever receives the
   generated OPENQASM text (and a zoo device name); the seed never
   reaches it.  Redraw rules live with the workloads that need a
   compile to apply them. *)

open Epoc_circuit

type input = {
  name : string;
  qasm : string;  (** the OPENQASM 2.0 text each sample parses *)
  device : string option;  (** zoo device the compile targets *)
}

let of_circuit ?device name c =
  { name; qasm = Epoc_qasm.Qasm.to_string_qasm c; device }

(* The key an input's outputs are checked and reported under: its name,
   and its zoo device when it targets one. *)
let key i = match i.device with None -> i.name | Some d -> i.name ^ "@" ^ d

(* Digest of a generated input set: two runs with one seed print the
   same digest, so they provably compiled the same inputs. *)
let digest inputs =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.concat_map
             (fun i -> [ i.name; i.qasm; Option.value ~default:"" i.device ])
             inputs)))

let table1 () =
  List.map
    (fun (name, c) -> of_circuit name c)
    (Epoc_benchmarks.Benchmarks.table1 ())

let angle st = Random.State.float st (2.0 *. Float.pi)

(* Random Clifford+T/RZ circuit with CX/CZ couplings between arbitrary
   qubit pairs (the Figure-5 gate mix). *)
let random_circuit st ~n ~length =
  let b = Circuit.Builder.create n in
  for _ = 1 to length do
    let q = Random.State.int st n in
    let other () = (q + 1 + Random.State.int st (n - 1)) mod n in
    match Random.State.int st 10 with
    | 0 -> Circuit.Builder.add b Gate.H [ q ]
    | 1 -> Circuit.Builder.add b Gate.T [ q ]
    | 2 -> Circuit.Builder.add b Gate.S [ q ]
    | 3 -> Circuit.Builder.add b Gate.X [ q ]
    | 4 -> Circuit.Builder.add b (Gate.RZ (angle st)) [ q ]
    | 5 -> Circuit.Builder.add b Gate.SX [ q ]
    | 6 | 7 -> Circuit.Builder.add b Gate.CX [ q; other () ]
    | _ -> Circuit.Builder.add b Gate.CZ [ q; other () ]
  done;
  Circuit.Builder.to_circuit b

(* Seeded Z rotations on both qubits, then one CZ: a diagonal
   entangling unitary.  Of the 2-qubit families tried this one varies
   least in GRAPE work per draw, so the seed barely moves the
   workload's cost (perfbench/README.md). *)
let phases_then_cz st =
  let b = Circuit.Builder.create 2 in
  Circuit.Builder.add b (Gate.RZ (angle st)) [ 0 ];
  Circuit.Builder.add b (Gate.RZ (angle st)) [ 1 ];
  Circuit.Builder.add b Gate.CZ [ 0; 1 ];
  Circuit.Builder.to_circuit b

(* Draw until [accept] holds, counting the redraws. *)
let rec draw_until ?(redraws = 0) st draw accept =
  let x = draw st in
  if accept x then (x, redraws)
  else draw_until ~redraws:(redraws + 1) st draw accept
