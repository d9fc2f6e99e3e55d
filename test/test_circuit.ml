open Epoc_linalg
open Epoc_circuit

let mat = Alcotest.testable Mat.pp (Mat.approx_equal ~eps:1e-9)

let check_equiv name a b =
  Alcotest.(check bool) name true (Circuit.equal_unitary ~eps:1e-7 a b)

(* --- Gate -------------------------------------------------------------- *)

let all_named_gates =
  [
    Gate.I; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg;
    Gate.SX; Gate.SXdg; Gate.RX 0.3; Gate.RY 0.7; Gate.RZ 1.1; Gate.Phase 0.5;
    Gate.U3 (0.4, 0.9, 1.3); Gate.CX; Gate.CY; Gate.CZ; Gate.CH; Gate.SWAP;
    Gate.ISWAP; Gate.CRX 0.3; Gate.CRY 0.6; Gate.CRZ 0.9; Gate.CPhase 1.2;
    Gate.RXX 0.4; Gate.RYY 0.8; Gate.RZZ 1.5; Gate.CCX; Gate.CCZ; Gate.CSWAP;
  ]

let test_all_gates_unitary () =
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Gate.to_string g ^ " is unitary")
        true
        (Mat.is_unitary (Gate.matrix g)))
    all_named_gates

let test_dagger_inverts () =
  List.iter
    (fun g ->
      let m = Gate.matrix g and md = Gate.matrix (Gate.dagger g) in
      Alcotest.check mat
        (Gate.to_string g ^ " dagger")
        (Mat.identity (Mat.rows m))
        (Mat.mul md m))
    all_named_gates

let test_gate_identities () =
  (* HZH = X *)
  let h = Gate.matrix Gate.H and z = Gate.matrix Gate.Z and x = Gate.matrix Gate.X in
  Alcotest.check mat "HZH = X" x (Mat.mul h (Mat.mul z h));
  (* S^2 = Z, T^2 = S *)
  let s = Gate.matrix Gate.S and t = Gate.matrix Gate.T in
  Alcotest.check mat "S^2 = Z" z (Mat.mul s s);
  Alcotest.check mat "T^2 = S" s (Mat.mul t t);
  (* SX^2 = X *)
  let sx = Gate.matrix Gate.SX in
  Alcotest.check mat "SX^2 = X" x (Mat.mul sx sx);
  (* U3(theta,phi,lambda) vs RZ RY RZ up to phase *)
  let u3 = Gate.matrix (Gate.U3 (0.5, 0.8, 1.2)) in
  let rzryrz =
    Mat.mul
      (Gate.matrix (Gate.RZ 0.8))
      (Mat.mul (Gate.matrix (Gate.RY 0.5)) (Gate.matrix (Gate.RZ 1.2)))
  in
  Alcotest.(check bool) "U3 = RZ RY RZ up to phase" true
    (Mat.equal_up_to_phase u3 rzryrz)

let test_ccx_truth_table () =
  let m = Gate.matrix Gate.CCX in
  (* |110> -> |111> and |111> -> |110>, everything else fixed *)
  Alcotest.check mat "ccx"
    (Mat.init 8 8 (fun r c ->
         let expect =
           match c with 6 -> 7 | 7 -> 6 | _ -> c
         in
         if r = expect then Cx.one else Cx.zero))
    m

(* --- Circuit ----------------------------------------------------------- *)

let bell_circuit () =
  let c = Circuit.empty 2 in
  let c = Circuit.add c Gate.H [ 0 ] in
  Circuit.add c Gate.CX [ 0; 1 ]

let test_bell_state () =
  let c = bell_circuit () in
  let state = Circuit.apply_to_state c [| Cx.one; Cx.zero; Cx.zero; Cx.zero |] in
  let s = 1.0 /. sqrt 2.0 in
  Alcotest.(check (float 1e-9)) "amp 00" s (Cx.re state.(0));
  Alcotest.(check (float 1e-9)) "amp 11" s (Cx.re state.(3));
  Alcotest.(check (float 1e-9)) "amp 01" 0.0 (Cx.norm state.(1));
  Alcotest.(check (float 1e-9)) "amp 10" 0.0 (Cx.norm state.(2))

let test_unitary_vs_kron () =
  (* H on qubit 0 of a 2-qubit circuit = H (x) I *)
  let c = Circuit.add (Circuit.empty 2) Gate.H [ 0 ] in
  Alcotest.check mat "H(x)I" (Mat.kron (Gate.matrix Gate.H) (Mat.identity 2))
    (Circuit.unitary c);
  let c1 = Circuit.add (Circuit.empty 2) Gate.H [ 1 ] in
  Alcotest.check mat "I(x)H" (Mat.kron (Mat.identity 2) (Gate.matrix Gate.H))
    (Circuit.unitary c1)

let test_cx_reversed_qubits () =
  (* CX with control=1, target=0 on 2 qubits *)
  let c = Circuit.add (Circuit.empty 2) Gate.CX [ 1; 0 ] in
  let u = Circuit.unitary c in
  (* |01> -> |11> : column 1 has a 1 in row 3 *)
  Alcotest.check mat "reversed cx"
    (Mat.init 4 4 (fun r c ->
         let expect = match c with 1 -> 3 | 3 -> 1 | _ -> c in
         if r = expect then Cx.one else Cx.zero))
    u

let test_depth () =
  let c = bell_circuit () in
  Alcotest.(check int) "bell depth" 2 (Circuit.depth c);
  let c3 = Circuit.add (Circuit.empty 3) Gate.H [ 0 ] in
  let c3 = Circuit.add c3 Gate.H [ 1 ] in
  let c3 = Circuit.add c3 Gate.H [ 2 ] in
  Alcotest.(check int) "parallel h depth" 1 (Circuit.depth c3);
  Alcotest.(check int) "counts" 3 (Circuit.gate_count c3)

let test_inverse () =
  let c = Circuit.of_ops 3
      [
        { Circuit.gate = Gate.H; qubits = [ 0 ] };
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        { Circuit.gate = Gate.T; qubits = [ 2 ] };
        { Circuit.gate = Gate.RZ 0.7; qubits = [ 1 ] };
        { Circuit.gate = Gate.CCX; qubits = [ 0; 1; 2 ] };
      ]
  in
  let id = Circuit.append c (Circuit.inverse c) in
  Alcotest.check mat "c . c^-1 = I" (Mat.identity 8) (Circuit.unitary id)

let test_neighbors () =
  let c = Circuit.of_ops 4
      [
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        { Circuit.gate = Gate.CX; qubits = [ 1; 2 ] };
        { Circuit.gate = Gate.H; qubits = [ 3 ] };
      ]
  in
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 2 ]
    (List.sort compare (Circuit.neighbors c 1));
  Alcotest.(check (list int)) "neighbors of 3" [] (Circuit.neighbors c 3)

let test_validation () =
  Alcotest.check_raises "qubit out of range"
    (Invalid_argument "Circuit: qubit 5 out of range [0,2)") (fun () ->
      ignore (Circuit.add (Circuit.empty 2) Gate.H [ 5 ]));
  Alcotest.check_raises "duplicate qubits"
    (Invalid_argument "Circuit: duplicate qubit in gate application") (fun () ->
      ignore (Circuit.add (Circuit.empty 2) Gate.CX [ 1; 1 ]))

(* --- Decompose --------------------------------------------------------- *)

let test_zyz_roundtrip () =
  let cases =
    [ Gate.H; Gate.X; Gate.T; Gate.S; Gate.U3 (0.3, 1.2, -0.7); Gate.RY 2.1;
      Gate.RZ (-1.0); Gate.SX ]
  in
  List.iter
    (fun g ->
      let u = Gate.matrix g in
      let d = Decompose.zyz u in
      Alcotest.check mat
        (Gate.to_string g ^ " zyz roundtrip")
        u (Decompose.matrix_of_zyz d))
    cases

let test_zyz_random_roundtrip () =
  let st = Random.State.make [| 7 |] in
  for i = 0 to 19 do
    let g =
      Gate.U3
        ( Random.State.float st Float.pi,
          Random.State.float st 6.28,
          Random.State.float st 6.28 )
    in
    let phase = Cx.cis (Random.State.float st 6.28) in
    let u = Mat.scale phase (Gate.matrix g) in
    let d = Decompose.zyz u in
    Alcotest.check mat
      (Printf.sprintf "random zyz %d" i)
      u (Decompose.matrix_of_zyz d)
  done

(* --- Peephole ---------------------------------------------------------- *)

let random_circuit seed n len =
  let st = Random.State.make [| seed |] in
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    let q = Random.State.int st n in
    match Random.State.int st 8 with
    | 0 -> Circuit.Builder.add b Gate.H [ q ]
    | 1 -> Circuit.Builder.add b Gate.T [ q ]
    | 2 -> Circuit.Builder.add b Gate.X [ q ]
    | 3 -> Circuit.Builder.add b (Gate.RZ (Random.State.float st 6.28)) [ q ]
    | 4 -> Circuit.Builder.add b Gate.S [ q ]
    | 5 | 6 ->
        let q2 = (q + 1 + Random.State.int st (n - 1)) mod n in
        Circuit.Builder.add b Gate.CX [ q; q2 ]
    | _ ->
        let q2 = (q + 1 + Random.State.int st (n - 1)) mod n in
        Circuit.Builder.add b Gate.CZ [ q; q2 ]
  done;
  Circuit.Builder.to_circuit b

let test_peephole_cancels_self_inverse () =
  let c = Circuit.of_ops 2
      [
        { Circuit.gate = Gate.H; qubits = [ 0 ] };
        { Circuit.gate = Gate.H; qubits = [ 0 ] };
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
      ]
  in
  let o = Peephole.optimize c in
  Alcotest.(check int) "all cancelled" 0 (Circuit.gate_count o)

let test_peephole_merges_rotations () =
  let c = Circuit.of_ops 1
      [
        { Circuit.gate = Gate.T; qubits = [ 0 ] };
        { Circuit.gate = Gate.T; qubits = [ 0 ] };
      ]
  in
  let o = Peephole.optimize c in
  Alcotest.(check int) "merged to one" 1 (Circuit.gate_count o);
  check_equiv "T T = S" c o

let test_peephole_commutes_through_cx () =
  (* Z on control commutes through CX: Z q0; CX; Z q0 cancels. *)
  let c = Circuit.of_ops 2
      [
        { Circuit.gate = Gate.Z; qubits = [ 0 ] };
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        { Circuit.gate = Gate.Z; qubits = [ 0 ] };
      ]
  in
  let o = Peephole.optimize c in
  Alcotest.(check int) "z pair cancelled through cx" 1 (Circuit.gate_count o);
  check_equiv "semantics preserved" c o

let test_peephole_x_through_cx_target () =
  let c = Circuit.of_ops 2
      [
        { Circuit.gate = Gate.X; qubits = [ 1 ] };
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        { Circuit.gate = Gate.X; qubits = [ 1 ] };
      ]
  in
  let o = Peephole.optimize c in
  Alcotest.(check int) "x pair cancelled through cx target" 1 (Circuit.gate_count o);
  check_equiv "semantics preserved" c o

let test_peephole_preserves_semantics_random () =
  for seed = 1 to 15 do
    let c = random_circuit seed 4 40 in
    let o = Peephole.optimize c in
    check_equiv (Printf.sprintf "random %d" seed) c o;
    Alcotest.(check bool)
      (Printf.sprintf "random %d no growth" seed)
      true
      (Circuit.gate_count o <= Circuit.gate_count c)
  done

let test_peephole_aggressive_preserves_semantics () =
  for seed = 16 to 25 do
    let c = random_circuit seed 3 30 in
    let o = Peephole.optimize ~aggressive:true c in
    check_equiv (Printf.sprintf "aggressive random %d" seed) c o
  done

(* --- lower --------------------------------------------------------------- *)

let test_lower_every_gate () =
  (* every named gate lowers to the ZX basis with the same unitary *)
  let three_qubit_cases =
    [ (Gate.CCX, [ 0; 1; 2 ]); (Gate.CCZ, [ 0; 1; 2 ]); (Gate.CSWAP, [ 0; 1; 2 ]) ]
  in
  let two_qubit_cases =
    List.map
      (fun g -> (g, [ 0; 1 ]))
      [
        Gate.CX; Gate.CY; Gate.CZ; Gate.CH; Gate.SWAP; Gate.ISWAP;
        Gate.CRX 0.7; Gate.CRY 1.1; Gate.CRZ 0.4; Gate.CPhase 0.9;
        Gate.RXX 0.5; Gate.RYY 0.8; Gate.RZZ 1.3;
      ]
  in
  let one_qubit_cases =
    List.map
      (fun g -> (g, [ 1 ]))
      [ Gate.RY 0.6; Gate.U3 (0.3, 0.7, 1.9); Gate.Y; Gate.H; Gate.T ]
  in
  List.iter
    (fun (g, qs) ->
      let c = Circuit.of_ops 3 [ { Circuit.gate = g; qubits = qs } ] in
      let lowered = Lower.to_zx_basis c in
      List.iter
        (fun (o : Circuit.op) ->
          Alcotest.(check bool)
            (Gate.to_string g ^ " lowers to basis gate " ^ Gate.name o.Circuit.gate)
            true (Lower.is_zx_basis o))
        (Circuit.ops lowered);
      check_equiv (Gate.to_string g ^ " lowering equivalence") c lowered)
    (one_qubit_cases @ two_qubit_cases @ three_qubit_cases)

let test_lower_rejects_opaque () =
  let u = Gate.Unitary { name = "blk"; matrix = Mat.identity 4 } in
  let c = Circuit.of_ops 2 [ { Circuit.gate = u; qubits = [ 0; 1 ] } ] in
  match Lower.to_zx_basis c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for opaque unitary"

(* --- reorder ------------------------------------------------------------- *)

let test_reorder_depth_on_diagonal_chain () =
  (* chain of commuting CZs reorders into 2 layers *)
  let ops = List.init 5 (fun q -> { Circuit.gate = Gate.CZ; qubits = [ q; q + 1 ] }) in
  let c = Circuit.of_ops 6 ops in
  Alcotest.(check int) "naive depth" 5 (Circuit.depth c);
  Alcotest.(check int) "commutation depth" 1 (Reorder.depth c);
  let r = Reorder.commutation_aware c in
  check_equiv "reorder sound" c r;
  Alcotest.(check bool) "reordered depth <= 2" true (Circuit.depth r <= 2)

let test_reorder_respects_noncommuting () =
  let c =
    Circuit.of_ops 2
      [
        { Circuit.gate = Gate.H; qubits = [ 0 ] };
        { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
        { Circuit.gate = Gate.H; qubits = [ 0 ] };
      ]
  in
  let r = Reorder.commutation_aware c in
  check_equiv "noncommuting preserved" c r;
  Alcotest.(check int) "depth unchanged" 3 (Circuit.depth r)

(* --- qcheck ------------------------------------------------------------ *)

let arb_circuit =
  QCheck.make
    ~print:(fun (seed, n, len) -> Printf.sprintf "seed=%d n=%d len=%d" seed n len)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 2 4) (int_range 1 30))

let prop_peephole_sound =
  QCheck.Test.make ~name:"peephole preserves unitary" ~count:30 arb_circuit
    (fun (seed, n, len) ->
      let c = random_circuit seed n len in
      Circuit.equal_unitary ~eps:1e-6 c (Peephole.optimize c))

let prop_circuit_unitary_is_unitary =
  QCheck.Test.make ~name:"circuit unitary is unitary" ~count:30 arb_circuit
    (fun (seed, n, len) ->
      let c = random_circuit seed n len in
      Mat.is_unitary ~eps:1e-7 (Circuit.unitary c))

let prop_inverse_cancels =
  QCheck.Test.make ~name:"circuit . inverse = identity" ~count:20 arb_circuit
    (fun (seed, n, len) ->
      let c = random_circuit seed n len in
      let u = Circuit.unitary (Circuit.append c (Circuit.inverse c)) in
      Mat.approx_equal ~eps:1e-7 u (Mat.identity (Mat.rows u)))

(* every named constructor, parameters drawn at random *)
let arb_named_gate =
  let open QCheck.Gen in
  let angle = float_range (-4.0 *. Float.pi) (4.0 *. Float.pi) in
  let one_param =
    [
      (fun a -> Gate.RX a); (fun a -> Gate.RY a); (fun a -> Gate.RZ a);
      (fun a -> Gate.Phase a); (fun a -> Gate.CRX a); (fun a -> Gate.CRY a);
      (fun a -> Gate.CRZ a); (fun a -> Gate.CPhase a); (fun a -> Gate.RXX a);
      (fun a -> Gate.RYY a); (fun a -> Gate.RZZ a);
    ]
  in
  QCheck.make ~print:Gate.to_string
    (oneof
       [
         oneofl (List.filter (fun g -> Gate.params g = []) all_named_gates);
         map2 (fun make a -> make a) (oneofl one_param) angle;
         map3 (fun a b c -> Gate.U3 (a, b, c)) angle angle angle;
       ])

let prop_of_name_inverts_name =
  QCheck.Test.make ~name:"of_name inverts name and params" ~count:200
    arb_named_gate (fun g -> Gate.of_name (Gate.name g) (Gate.params g) = Some g)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_peephole_sound;
      prop_circuit_unitary_is_unitary;
      prop_inverse_cancels;
      prop_of_name_inverts_name;
    ]

let () =
  Alcotest.run "circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "all gates unitary" `Quick test_all_gates_unitary;
          Alcotest.test_case "dagger inverts" `Quick test_dagger_inverts;
          Alcotest.test_case "gate identities" `Quick test_gate_identities;
          Alcotest.test_case "ccx truth table" `Quick test_ccx_truth_table;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "bell state" `Quick test_bell_state;
          Alcotest.test_case "unitary vs kron" `Quick test_unitary_vs_kron;
          Alcotest.test_case "cx reversed qubits" `Quick test_cx_reversed_qubits;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "zyz roundtrip" `Quick test_zyz_roundtrip;
          Alcotest.test_case "zyz random roundtrip" `Quick test_zyz_random_roundtrip;
        ] );
      ( "lower",
        [
          Alcotest.test_case "every gate" `Quick test_lower_every_gate;
          Alcotest.test_case "rejects opaque" `Quick test_lower_rejects_opaque;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "diagonal chain" `Quick
            test_reorder_depth_on_diagonal_chain;
          Alcotest.test_case "noncommuting preserved" `Quick
            test_reorder_respects_noncommuting;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "cancels self inverse" `Quick
            test_peephole_cancels_self_inverse;
          Alcotest.test_case "merges rotations" `Quick test_peephole_merges_rotations;
          Alcotest.test_case "commutes through cx" `Quick
            test_peephole_commutes_through_cx;
          Alcotest.test_case "x through cx target" `Quick
            test_peephole_x_through_cx_target;
          Alcotest.test_case "random semantics" `Quick
            test_peephole_preserves_semantics_random;
          Alcotest.test_case "aggressive semantics" `Quick
            test_peephole_aggressive_preserves_semantics;
        ] );
      ("properties", qcheck_cases);
    ]
