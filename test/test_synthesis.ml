open Epoc_linalg
open Epoc_circuit
open Epoc_synthesis

let op gate qubits = { Circuit.gate; qubits }

let fast_options =
  {
    Qsearch.default_options with
    Qsearch.max_cnots = 4;
    max_expansions = 12;
    instantiate_options =
      {
        Instantiate.default_options with
        Instantiate.max_iterations = 250;
        restarts = 1;
      };
  }

(* --- template ---------------------------------------------------------- *)

let test_template_param_count () =
  let t = Template.root 2 in
  Alcotest.(check int) "root params" 6 (Template.param_count t);
  match Template.successors t with
  | s :: _ ->
      Alcotest.(check int) "successor params" 12 (Template.param_count s);
      Alcotest.(check int) "successor cnots" 1 (Template.cnot_count s)
  | [] -> Alcotest.fail "no successors"

let test_template_successor_count () =
  Alcotest.(check int) "2q pairs" 2
    (List.length (Template.successors (Template.root 2)));
  Alcotest.(check int) "3q pairs" 6
    (List.length (Template.successors (Template.root 3)))

let test_template_circuit_shape () =
  let t = List.hd (Template.successors (Template.root 2)) in
  let c = Template.to_circuit t (Array.make (Template.param_count t) 0.1) in
  (* 2 initial U3 + CX + 2 U3 *)
  Alcotest.(check int) "ops" 5 (Circuit.gate_count c);
  Alcotest.(check int) "cx" 1 (Circuit.count_gate "cx" c)

(* --- instantiate -------------------------------------------------------- *)

let test_instantiate_single_qubit () =
  (* a single U3 template must hit any 1q unitary exactly *)
  let target = Gate.matrix (Gate.U3 (0.73, 1.91, -0.42)) in
  let r = Instantiate.instantiate target (Template.root 1) in
  Alcotest.(check bool)
    (Printf.sprintf "distance %.3g" r.Instantiate.distance)
    true
    (r.Instantiate.distance < 1e-9)

let test_instantiate_identity () =
  let r = Instantiate.instantiate (Mat.identity 4) (Template.root 2) in
  Alcotest.(check bool) "identity reachable" true (r.Instantiate.distance < 1e-9)

let test_gradient_matches_slope () =
  (* finite-difference gradient should predict first-order change *)
  let target = Gate.matrix Gate.CX in
  let t = List.hd (Template.successors (Template.root 2)) in
  let p = Array.init (Template.param_count t) (fun i -> 0.3 +. (0.1 *. float_of_int i)) in
  let g = Instantiate.gradient target t p in
  let d0 = Instantiate.distance target t p in
  let h = 1e-5 in
  let p' = Array.mapi (fun i v -> v -. (h *. g.(i))) p in
  let d1 = Instantiate.distance target t p' in
  let gnorm2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 g in
  if gnorm2 > 1e-10 then
    Alcotest.(check bool) "descent direction decreases distance" true (d1 < d0)

(* --- qsearch ------------------------------------------------------------ *)

(* A QSearch run that must converge. *)
let synthesize ?options name target =
  match Qsearch.synthesize_r ?options target with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "%s did not converge: %s" name (Epoc_error.to_string e)

let check_synthesis name target max_cnots =
  let r =
    synthesize ~options:{ fast_options with Qsearch.max_cnots } name target
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s converged (dist %.3g, %d cnots)" name r.Qsearch.distance
       r.Qsearch.cnots)
    true r.Qsearch.converged;
  Alcotest.(check bool)
    (name ^ " circuit matches target")
    true
    (Mat.hs_distance target (Circuit.unitary r.Qsearch.circuit) < 1e-6)

let test_qsearch_cnot () = check_synthesis "cx" (Gate.matrix Gate.CX) 3

let test_qsearch_cz () = check_synthesis "cz" (Gate.matrix Gate.CZ) 3

let test_qsearch_swapless () =
  (* a generic 2-qubit unitary requires up to 3 CNOTs *)
  let c =
    Circuit.of_ops 2
      [
        op (Gate.RY 0.7) [ 0 ]; op Gate.CX [ 0; 1 ]; op (Gate.RZ 1.2) [ 1 ];
        op Gate.CX [ 1; 0 ]; op (Gate.RX 0.4) [ 0 ]; op Gate.CZ [ 0; 1 ];
      ]
  in
  check_synthesis "generic 2q" (Circuit.unitary c) 3

let test_qsearch_single_qubit_direct () =
  let r = synthesize "h" (Gate.matrix Gate.H) in
  Alcotest.(check bool) "h" true r.Qsearch.converged;
  Alcotest.(check int) "no cnots" 0 r.Qsearch.cnots

let test_qsearch_reports_depth_reduction () =
  (* 6 entangling gates collapse to at most 3 CNOTs after synthesis *)
  let c =
    Circuit.of_ops 2
      [
        op Gate.CX [ 0; 1 ]; op Gate.CZ [ 0; 1 ]; op Gate.CX [ 1; 0 ];
        op (Gate.RZ 0.3) [ 0 ]; op Gate.CX [ 0; 1 ]; op Gate.CZ [ 1; 0 ];
        op Gate.CX [ 0; 1 ];
      ]
  in
  let target = Circuit.unitary c in
  let r = synthesize ~options:fast_options "depth reduction" target in
  Alcotest.(check bool) "converged" true r.Qsearch.converged;
  Alcotest.(check bool)
    (Printf.sprintf "fewer cnots: %d" r.Qsearch.cnots)
    true (r.Qsearch.cnots <= 3)

(* --- synthesis facade --------------------------------------------------- *)

let test_vug_form_equivalence () =
  let c =
    Circuit.of_ops 3
      [
        op Gate.H [ 0 ]; op Gate.SWAP [ 0; 1 ]; op Gate.T [ 1 ];
        op Gate.CZ [ 1; 2 ]; op (Gate.RY 0.9) [ 2 ]; op Gate.CX [ 0; 2 ];
      ]
  in
  let v = Synthesis.vug_form c in
  Alcotest.(check bool) "equivalent" true (Circuit.equal_unitary ~eps:1e-6 c v);
  List.iter
    (fun (o : Circuit.op) ->
      Alcotest.(check bool)
        ("vug form op " ^ Gate.name o.Circuit.gate)
        true
        (Gate.arity o.Circuit.gate = 1 || Gate.name o.Circuit.gate = "cx"))
    (Circuit.ops v)

let test_synthesize_block_equivalence () =
  let st = Random.State.make [| 5 |] in
  for i = 0 to 4 do
    let b = Circuit.Builder.create 2 in
    for _ = 0 to 5 + i do
      (match Random.State.int st 4 with
      | 0 -> Circuit.Builder.add b (Gate.RZ (Random.State.float st 6.2)) [ Random.State.int st 2 ]
      | 1 -> Circuit.Builder.add b (Gate.RY (Random.State.float st 6.2)) [ Random.State.int st 2 ]
      | 2 -> Circuit.Builder.add b Gate.CX [ 0; 1 ]
      | _ -> Circuit.Builder.add b Gate.CX [ 1; 0 ])
    done;
    let block = Circuit.Builder.to_circuit b in
    let r = Synthesis.synthesize_block ~options:fast_options block in
    Alcotest.(check bool)
      (Printf.sprintf "block %d equivalent (%s)" i
         (match r.Synthesis.source with
         | Synthesis.Synthesized -> "synthesized"
         | Synthesis.Fallback -> "fallback"))
      true
      (Synthesis.verify ~eps:1e-6 block r)
  done

let test_synthesize_block_never_worse () =
  (* deep repetitive block: synthesis must not return more CNOTs than the
     direct VUG form *)
  let ops =
    List.concat
      (List.init 5 (fun _ -> [ op Gate.CX [ 0; 1 ]; op (Gate.RZ 0.2) [ 1 ] ]))
  in
  let block = Circuit.of_ops 2 ops in
  let r = Synthesis.synthesize_block ~options:fast_options block in
  let direct = Synthesis.vug_form block in
  Alcotest.(check bool) "not worse" true
    (Synthesis.cx_count r.Synthesis.circuit <= Synthesis.cx_count direct)

(* --- CNOT lower bound ----------------------------------------------------- *)

let u3 a b c = Gate.matrix (Gate.U3 (a, b, c))

(* [m] between generic single-qubit layers on both sides. *)
let dressed m =
  Mat.mul
    (Mat.kron (u3 0.3 1.1 (-0.7)) (u3 2.1 (-0.4) 0.9))
    (Mat.mul m (Mat.kron (u3 1.7 0.2 0.5) (u3 (-0.8) 1.3 2.6)))

let test_cnot_lower_bound_named () =
  let check name expected u =
    Alcotest.(check int) name expected (Synthesis.cnot_lower_bound u)
  in
  let cx01 = Gate.matrix Gate.CX in
  let cx10 = Circuit.unitary (Circuit.of_ops 2 [ op Gate.CX [ 1; 0 ] ]) in
  check "identity" 0 (Mat.identity 4);
  check "local" 0 (dressed (Mat.identity 4));
  check "cx" 1 cx01;
  check "dressed cz" 1 (dressed (Gate.matrix Gate.CZ));
  check "dcx" 2 (Mat.mul cx01 cx10);
  check "iswap" 2 (Gate.matrix Gate.ISWAP);
  check "swap" 3 (Gate.matrix Gate.SWAP);
  let generic =
    { (Template.root 2) with Template.cnots = [ (0, 1); (1, 0); (0, 1) ] }
  in
  let st = Random.State.make [| 3 |] in
  check "random su(4)" 3
    (Template.unitary generic
       (Array.init (Template.param_count generic) (fun _ ->
            Random.State.float st 6.29)))

(* A CX moved off its class by a YY rotation (a ZZ one would only add
   local gates), to about 1e-9 from it: the bound must still allow a
   single CNOT, or a search converging within the threshold could be
   skipped. *)
let test_cnot_lower_bound_near_cx () =
  let cx = Gate.matrix Gate.CX in
  let near = Mat.mul cx (Gate.matrix (Gate.RYY (sqrt 8e-9))) in
  let d = Mat.hs_distance cx near in
  Alcotest.(check bool)
    (Printf.sprintf "distance %.3g near 1e-9" d)
    true
    (d > 5e-10 && d < 2e-9);
  Alcotest.(check int) "classified with cx" 1 (Synthesis.cnot_lower_bound near)

(* --- qcheck -------------------------------------------------------------- *)

let arb_2q_block =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "seed=%d" s)
    QCheck.Gen.(int_bound 10_000)

let random_2q_block seed =
  let st = Random.State.make [| seed |] in
  let b = Circuit.Builder.create 2 in
  for _ = 0 to 3 + Random.State.int st 6 do
    match Random.State.int st 5 with
    | 0 -> Circuit.Builder.add b (Gate.RZ (Random.State.float st 6.2)) [ Random.State.int st 2 ]
    | 1 -> Circuit.Builder.add b (Gate.RX (Random.State.float st 6.2)) [ Random.State.int st 2 ]
    | 2 -> Circuit.Builder.add b Gate.H [ Random.State.int st 2 ]
    | 3 -> Circuit.Builder.add b Gate.CX [ 0; 1 ]
    | _ -> Circuit.Builder.add b Gate.CX [ 1; 0 ]
  done;
  Circuit.Builder.to_circuit b

let prop_block_synthesis_sound =
  QCheck.Test.make ~name:"synthesize_block is sound" ~count:10 arb_2q_block
    (fun seed ->
      let block = random_2q_block seed in
      let r = Synthesis.synthesize_block ~options:fast_options block in
      Synthesis.verify ~eps:1e-5 block r)

let random_1q_block seed =
  let st = Random.State.make [| seed |] in
  let b = Circuit.Builder.create 1 in
  for _ = 0 to Random.State.int st 6 do
    match Random.State.int st 4 with
    | 0 -> Circuit.Builder.add b (Gate.RZ (Random.State.float st 6.2)) [ 0 ]
    | 1 -> Circuit.Builder.add b (Gate.RX (Random.State.float st 6.2)) [ 0 ]
    | 2 -> Circuit.Builder.add b Gate.H [ 0 ]
    | _ -> Circuit.Builder.add b Gate.T [ 0 ]
  done;
  Circuit.Builder.to_circuit b

(* Whenever [synthesize_block] skips the search (no search telemetry on a
   block narrow enough to search), the search it skipped, with the same
   options and RNG, fails or returns a circuit the acceptance rule —
   fewer CNOTs, or as many at lower depth — rejects. *)
let prop_skip_sound =
  QCheck.Test.make ~name:"skipped searches could not win" ~count:100
    arb_2q_block (fun seed ->
      List.for_all
        (fun block ->
          let r = Synthesis.synthesize_block ~options:fast_options block in
          let direct = Synthesis.vug_form block in
          r.Synthesis.open_max > 0
          || r.Synthesis.circuit = direct
             &&
             match
               Qsearch.synthesize_r ~options:fast_options
                 ~rng:(Random.State.make [| 17 |])
                 (Circuit.unitary block)
             with
             | Error _ -> true
             | Ok o ->
                 let cx = Synthesis.cx_count o.Qsearch.circuit
                 and cf = Synthesis.cx_count direct in
                 cx > cf
                 || cx = cf
                    && Circuit.depth o.Qsearch.circuit >= Circuit.depth direct)
        [ random_2q_block seed; random_1q_block seed ])

(* The bound never exceeds a unitary's CNOT count, also just inside the
   threshold: a random circuit of m CNOTs (random orientations and U3
   layers), nudged along a random Hermitian generator to a distance of
   about 0.9e-8, classifies at most m. *)
let prop_lower_bound_sound =
  QCheck.Test.make ~name:"lower bound never exceeds the cnot count"
    ~count:200 arb_2q_block (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = Random.State.int st 3 in
      let t =
        { (Template.root 2) with
          Template.cnots =
            List.init m (fun _ ->
                if Random.State.bool st then (0, 1) else (1, 0)) }
      in
      let u =
        Template.unitary t
          (Array.init (Template.param_count t) (fun _ ->
               Random.State.float st 6.29))
      in
      let g =
        Mat.init 4 4 (fun _ _ ->
            Cx.make (Random.State.float st 2.0 -. 1.0)
              (Random.State.float st 2.0 -. 1.0))
      in
      let h = Mat.add g (Mat.adjoint g) in
      let nudge eps = Mat.mul u (Expm.expi_hermitian h eps) in
      (* the distance grows as eps² *)
      let per_eps2 = Mat.hs_distance u (nudge 1e-3) /. 1e-6 in
      let near = nudge (sqrt (0.9e-8 /. per_eps2)) in
      let d = Mat.hs_distance u near in
      if d >= 1e-8 || Synthesis.cnot_lower_bound near > m then
        QCheck.Test.fail_reportf "m=%d: distance %.3g, bound %d" m d
          (Synthesis.cnot_lower_bound near);
      true)

(* A random template (n in {1,2,3}, 0-4 CNOTs in either orientation),
   parameter point and target unitary. *)
let random_instance seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 3 in
  let random_template cnots =
    let rec add t k =
      if k = 0 || n = 1 then t
      else
        let c = Random.State.int st n in
        let tg = (c + 1 + Random.State.int st (n - 1)) mod n in
        add { t with Template.cnots = t.Template.cnots @ [ (c, tg) ] } (k - 1)
    in
    add (Template.root n) cnots
  in
  let random_params t =
    Array.init (Template.param_count t) (fun _ ->
        Random.State.float st 6.29 -. 3.14)
  in
  let t = random_template (Random.State.int st 5) in
  let reference = random_template 4 in
  (t, random_params t, Template.unitary reference (random_params reference))

(* Central-difference reference gradient, one distance pair per
   parameter. *)
let central_difference target t p =
  let h = 1e-6 in
  Array.mapi
    (fun i v ->
      let at x =
        let q = Array.copy p in
        q.(i) <- x;
        Instantiate.distance target t q
      in
      (at (v +. h) -. at (v -. h)) /. (2.0 *. h))
    p

let prop_exact_gradient =
  QCheck.Test.make ~name:"exact gradient matches central differences"
    ~count:60 arb_2q_block (fun seed ->
      let t, p, target = random_instance seed in
      let d, g = Instantiate.evaluate target t p in
      let fd = central_difference target t p in
      (* bit-identical: QSearch's threshold decisions must not depend on
         which of the two computed the distance *)
      let reference = Mat.hs_distance target (Template.unitary t p) in
      let grad_err =
        Array.fold_left Float.max 0.0
          (Array.mapi (fun i x -> Float.abs (x -. fd.(i))) g)
      in
      if d <> reference || grad_err > 1e-6 then
        QCheck.Test.fail_reportf
          "n=%d cnots=%d: distance %.17g vs %.17g, gradient off by %.3g"
          t.Template.n (Template.cnot_count t) d reference grad_err;
      true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_block_synthesis_sound;
      prop_lower_bound_sound;
      prop_skip_sound;
      prop_exact_gradient;
    ]

let () =
  Alcotest.run "synthesis"
    [
      ( "template",
        [
          Alcotest.test_case "param count" `Quick test_template_param_count;
          Alcotest.test_case "successor count" `Quick test_template_successor_count;
          Alcotest.test_case "circuit shape" `Quick test_template_circuit_shape;
        ] );
      ( "instantiate",
        [
          Alcotest.test_case "single qubit exact" `Quick test_instantiate_single_qubit;
          Alcotest.test_case "identity" `Quick test_instantiate_identity;
          Alcotest.test_case "gradient descent direction" `Quick
            test_gradient_matches_slope;
        ] );
      ( "qsearch",
        [
          Alcotest.test_case "cx" `Quick test_qsearch_cnot;
          Alcotest.test_case "cz" `Quick test_qsearch_cz;
          Alcotest.test_case "generic 2q" `Quick test_qsearch_swapless;
          Alcotest.test_case "single qubit" `Quick test_qsearch_single_qubit_direct;
          Alcotest.test_case "depth reduction" `Quick
            test_qsearch_reports_depth_reduction;
        ] );
      ( "facade",
        [
          Alcotest.test_case "vug form equivalence" `Quick test_vug_form_equivalence;
          Alcotest.test_case "block equivalence" `Quick
            test_synthesize_block_equivalence;
          Alcotest.test_case "never worse" `Quick test_synthesize_block_never_worse;
        ] );
      ( "lower bound",
        [
          Alcotest.test_case "named unitaries" `Quick
            test_cnot_lower_bound_named;
          Alcotest.test_case "near cx" `Quick test_cnot_lower_bound_near_cx;
        ] );
      ("properties", qcheck_cases);
    ]
