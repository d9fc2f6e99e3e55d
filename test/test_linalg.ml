open Epoc_linalg

let check_float = Alcotest.(check (float 1e-9))

let cx = Alcotest.testable Cx.pp (Cx.approx_equal ~eps:1e-9)
let mat = Alcotest.testable Mat.pp (Mat.approx_equal ~eps:1e-9)

(* deterministic pseudo-random complex matrix *)
let seeded_matrix seed n =
  let st = Random.State.make [| seed |] in
  Mat.init n n (fun _ _ ->
      Cx.make (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0))

let seeded_hermitian seed n =
  let a = seeded_matrix seed n in
  Mat.scale_re 0.5 (Mat.add a (Mat.adjoint a))

(* Random unitary via exponentiating a random Hermitian. *)
let seeded_unitary seed n = Eig.expi_hermitian (seeded_hermitian seed n) 1.0

(* --- Cx ---------------------------------------------------------------- *)

let test_cx_basics () =
  check_float "norm i" 1.0 (Cx.norm Cx.i);
  Alcotest.check cx "cis pi = -1" (Cx.of_float (-1.0)) (Cx.cis Float.pi);
  Alcotest.check cx "i*i = -1" (Cx.of_float (-1.0)) (Cx.mul Cx.i Cx.i);
  Alcotest.check cx "conj i = -i" (Cx.neg Cx.i) (Cx.conj Cx.i);
  check_float "norm2" 25.0 (Cx.norm2 (Cx.make 3.0 4.0))

(* --- Mat --------------------------------------------------------------- *)

let test_mat_identity_mul () =
  let a = seeded_matrix 1 5 in
  Alcotest.check mat "I*A = A" a (Mat.mul (Mat.identity 5) a);
  Alcotest.check mat "A*I = A" a (Mat.mul a (Mat.identity 5))

let test_mat_adjoint_involution () =
  let a = seeded_matrix 2 4 in
  Alcotest.check mat "(A^dag)^dag = A" a (Mat.adjoint (Mat.adjoint a))

let test_mat_mul_assoc () =
  let a = seeded_matrix 3 4 and b = seeded_matrix 4 4 and c = seeded_matrix 5 4 in
  Alcotest.check mat "(AB)C = A(BC)"
    (Mat.mul (Mat.mul a b) c)
    (Mat.mul a (Mat.mul b c))

let test_mat_adjoint_antihomomorphism () =
  let a = seeded_matrix 6 4 and b = seeded_matrix 7 4 in
  Alcotest.check mat "(AB)^dag = B^dag A^dag"
    (Mat.adjoint (Mat.mul a b))
    (Mat.mul (Mat.adjoint b) (Mat.adjoint a))

let test_kron_dims_and_values () =
  let x = Mat.of_arrays [| [| Cx.zero; Cx.one |]; [| Cx.one; Cx.zero |] |] in
  let i2 = Mat.identity 2 in
  let xi = Mat.kron x i2 in
  Alcotest.(check int) "rows" 4 (Mat.rows xi);
  (* X on the MSB: |00> -> |10>, so entry (2,0) = 1. *)
  Alcotest.check cx "X(x)I maps |00> to |10>" Cx.one (Mat.get xi 2 0);
  Alcotest.check cx "zero entry" Cx.zero (Mat.get xi 1 0)

let test_kron_mixed_product () =
  let a = seeded_matrix 8 2 and b = seeded_matrix 9 3 in
  let c = seeded_matrix 10 2 and d = seeded_matrix 11 3 in
  (* (A (x) B)(C (x) D) = AC (x) BD *)
  Alcotest.check mat "mixed product"
    (Mat.kron (Mat.mul a c) (Mat.mul b d))
    (Mat.mul (Mat.kron a b) (Mat.kron c d))

let test_trace_invariance () =
  let a = seeded_matrix 12 5 in
  let u = seeded_unitary 13 5 in
  let conjugated = Mat.mul (Mat.mul u a) (Mat.adjoint u) in
  Alcotest.check cx "tr(UAU^dag) = tr A" (Mat.trace a) (Mat.trace conjugated)

let test_hs_fidelity_phase_invariance () =
  let u = seeded_unitary 14 4 in
  let v = Mat.scale (Cx.cis 0.7321) u in
  check_float "same up to phase" 1.0 (Mat.hs_fidelity u v);
  Alcotest.(check bool) "equal_up_to_phase" true (Mat.equal_up_to_phase u v)

let test_hs_distance_detects_difference () =
  let u = seeded_unitary 15 4 and v = seeded_unitary 16 4 in
  Alcotest.(check bool) "distinct unitaries" true (Mat.hs_distance u v > 1e-3)

let test_canonical_phase () =
  let u = seeded_unitary 17 4 in
  let v = Mat.scale (Cx.cis 1.234) u in
  Alcotest.check mat "canonical phases agree" (Mat.canonical_phase u)
    (Mat.canonical_phase v)

(* --- Eig --------------------------------------------------------------- *)

let test_eig_reconstruction () =
  let h = seeded_hermitian 20 6 in
  let d = Eig.hermitian h in
  let rebuilt = Eig.apply_function d (fun l -> Cx.of_float l) in
  Alcotest.check mat "V diag(l) V^dag = H" h rebuilt

let test_eig_eigenvector_property () =
  let h = seeded_hermitian 21 5 in
  let d = Eig.hermitian h in
  let v = d.Eig.eigenvectors in
  (* H v_k = l_k v_k for each column k *)
  for k = 0 to 4 do
    let col = Array.init 5 (fun r -> Mat.get v r k) in
    let hv = Mat.mul_vec h col in
    Array.iteri
      (fun r x ->
        Alcotest.check cx
          (Printf.sprintf "eigencolumn %d row %d" k r)
          (Cx.scale d.Eig.eigenvalues.(k) col.(r))
          x)
      hv
  done

let test_expi_unitary () =
  let h = seeded_hermitian 22 5 in
  let u = Eig.expi_hermitian h 0.37 in
  Alcotest.(check bool) "exp(-itH) unitary" true (Mat.is_unitary u)

(* --- Expm -------------------------------------------------------------- *)

let test_expm_zero () =
  Alcotest.check mat "exp(0) = I" (Mat.identity 4)
    (Expm.expi_hermitian (Mat.zeros 4 4) 1.0)

(* The series and Eig agree to ~5e-14 on this input and to ~3e-13 at
   worst over dims 4-16 and t up to 8. *)
let mat_1e12 = Alcotest.testable Mat.pp (Mat.approx_equal ~eps:1e-12)

let test_expm_matches_eig () =
  let h = seeded_hermitian 23 6 in
  for i = 0 to 4 do
    let t = 0.1 +. (0.8 *. float_of_int i) in
    Alcotest.check mat_1e12
      (Printf.sprintf "expm vs eig at t=%g" t)
      (Eig.expi_hermitian h t) (Expm.expi_hermitian h t)
  done

let test_expm_additive_commuting () =
  let h = seeded_hermitian 24 4 in
  let u1 = Expm.expi_hermitian h 0.3 and u2 = Expm.expi_hermitian h 0.5 in
  Alcotest.check mat "exp(-i.3H)exp(-i.5H) = exp(-i.8H)" (Expm.expi_hermitian h 0.8)
    (Mat.mul u1 u2)

(* --- Gf2 --------------------------------------------------------------- *)

let test_gf2_rank_identity () =
  let m = Gf2.init 4 4 (fun r c -> r = c) in
  Alcotest.(check int) "rank I4" 4 (Gf2.rank m)

let test_gf2_rank_dependent_rows () =
  (* row2 = row0 xor row1 *)
  let m =
    Gf2.init 3 4 (fun r c -> match r with 0 -> c < 2 | 1 -> c >= 2 | _ -> true)
  in
  Alcotest.(check int) "rank with dependent row" 2 (Gf2.rank m)

let test_gf2_gauss_ops_replay () =
  (* Replaying the recorded row ops on a fresh copy must reproduce the
     reduced matrix: this is exactly what circuit extraction relies on. *)
  let st = Random.State.make [| 99 |] in
  let m = Gf2.init 5 5 (fun _ _ -> Random.State.bool st) in
  let reduced = Gf2.copy m in
  let _, ops = Gf2.gauss reduced in
  let replay = Gf2.copy m in
  List.iter
    (fun op ->
      match op with
      | Gf2.Add { target; source } -> Gf2.add_row replay ~target ~source
      | Gf2.Swap (a, b) -> Gf2.swap_rows replay a b)
    ops;
  for r = 0 to 4 do
    for c = 0 to 4 do
      Alcotest.(check bool)
        (Printf.sprintf "entry %d,%d" r c)
        (Gf2.get reduced r c) (Gf2.get replay r c)
    done
  done

(* --- destination-passing kernels vs naive reference -------------------- *)

(* Naive textbook implementations over the public get/set API; the unboxed
   kernels must agree with these on random inputs. *)
let naive_mul a b =
  Mat.init (Mat.rows a) (Mat.cols b) (fun r c ->
      let acc = ref Cx.zero in
      for k = 0 to Mat.cols a - 1 do
        acc := Cx.add !acc (Cx.mul (Mat.get a r k) (Mat.get b k c))
      done;
      !acc)

let naive_kron a b =
  let br = Mat.rows b and bc = Mat.cols b in
  Mat.init (Mat.rows a * br) (Mat.cols a * bc) (fun r c ->
      Cx.mul (Mat.get a (r / br) (c / bc)) (Mat.get b (r mod br) (c mod bc)))

let naive_adjoint a =
  Mat.init (Mat.cols a) (Mat.rows a) (fun r c -> Cx.conj (Mat.get a c r))

let seeded_rect seed r c =
  let st = Random.State.make [| seed; r; c |] in
  Mat.init r c (fun _ _ ->
      Cx.make (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0))

let gen_dims = QCheck.Gen.(triple (int_range 1 6) (int_range 1 6) (int_range 1 6))

let arb_dims =
  QCheck.make
    ~print:(fun ((a, b, c), seed) -> Printf.sprintf "%dx%dx%d seed %d" a b c seed)
    QCheck.Gen.(pair gen_dims (int_bound 1_000_000))

let prop_mul_matches_naive =
  QCheck.Test.make ~name:"mul matches naive reference" ~count:60 arb_dims
    (fun ((m, k, n), seed) ->
      let a = seeded_rect seed m k and b = seeded_rect (seed + 1) k n in
      Mat.approx_equal ~eps:1e-9 (Mat.mul a b) (naive_mul a b))

let prop_mul_into_matches_mul =
  QCheck.Test.make ~name:"mul_into matches mul" ~count:60 arb_dims
    (fun ((m, k, n), seed) ->
      let a = seeded_rect seed m k and b = seeded_rect (seed + 1) k n in
      let dst = seeded_rect (seed + 2) m n in
      Mat.mul_into a b ~dst;
      Mat.approx_equal ~eps:1e-12 dst (Mat.mul a b))

let prop_kron_matches_naive =
  QCheck.Test.make ~name:"kron matches naive reference" ~count:40 arb_dims
    (fun ((m, k, n), seed) ->
      let a = seeded_rect seed m k and b = seeded_rect (seed + 1) k n in
      Mat.approx_equal ~eps:1e-12 (Mat.kron a b) (naive_kron a b))

let prop_adjoint_matches_naive =
  QCheck.Test.make ~name:"adjoint/adjoint_into match naive" ~count:40 arb_dims
    (fun ((m, k, _), seed) ->
      let a = seeded_rect seed m k in
      let dst = Mat.create k m in
      Mat.adjoint_into a ~dst;
      Mat.approx_equal ~eps:1e-12 (Mat.adjoint a) (naive_adjoint a)
      && Mat.approx_equal ~eps:1e-12 dst (naive_adjoint a))

let prop_trace_mul_matches =
  QCheck.Test.make ~name:"trace_mul = trace of mul" ~count:40
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 6)) small_int)
    (fun (n, seed) ->
      let a = seeded_rect (seed + 1) n n and b = seeded_rect (seed + 2) n n in
      Cx.approx_equal ~eps:1e-9 (Mat.trace_mul a b) (Mat.trace (Mat.mul a b)))

let prop_elementwise_alias =
  (* element-wise kernels must support dst aliasing an input *)
  QCheck.Test.make ~name:"element-wise _into kernels allow aliasing" ~count:40
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 6)) small_int)
    (fun (n, seed) ->
      let a = seeded_rect (seed + 1) n n and b = seeded_rect (seed + 2) n n in
      let sum = Mat.add a b in
      let x = Mat.copy a in
      Mat.add_into x b ~dst:x;
      let scaled = Mat.scale_re 0.37 a in
      let y = Mat.copy a in
      Mat.scale_re_into 0.37 y ~dst:y;
      let axpy = Mat.add a (Mat.scale_re 0.59 b) in
      let z = Mat.copy a in
      Mat.add_scaled_re_into 0.59 b ~dst:z;
      Mat.approx_equal ~eps:1e-12 x sum
      && Mat.approx_equal ~eps:1e-12 y scaled
      && Mat.approx_equal ~eps:1e-12 z axpy)

let prop_canonical_phase_random =
  QCheck.Test.make ~name:"canonical_phase strips phase on random matrices"
    ~count:40
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 6)) small_int)
    (fun (n, seed) ->
      let a = seeded_rect (seed + 1) n n in
      let rotated = Mat.scale (Cx.cis (0.1 +. (0.002 *. float_of_int seed))) a in
      Mat.approx_equal ~eps:1e-9 (Mat.canonical_phase a)
        (Mat.canonical_phase rotated))

let test_mul_into_rejects_aliasing () =
  let a = seeded_matrix 31 3 and b = seeded_matrix 32 3 in
  Alcotest.check_raises "dst == a"
    (Invalid_argument "Mat.mul_into: dst aliases an input") (fun () ->
      Mat.mul_into a b ~dst:a);
  Alcotest.check_raises "dst == b"
    (Invalid_argument "Mat.mul_into: dst aliases an input") (fun () ->
      Mat.mul_into a b ~dst:b);
  Alcotest.check_raises "adjoint dst == m"
    (Invalid_argument "Mat.adjoint_into: dst aliases input") (fun () ->
      Mat.adjoint_into a ~dst:a)

let test_mix_rows_matches_reference () =
  let u = seeded_matrix 33 8 in
  let coeff = seeded_matrix 34 2 in
  let rows = [| 1; 5 |] in
  (* reference: gather, combine via get/set *)
  let expected = Mat.copy u in
  let old = Array.map (fun r -> Array.init 8 (fun c -> Mat.get u r c)) rows in
  Array.iteri
    (fun i r ->
      for c = 0 to 7 do
        let acc = ref Cx.zero in
        Array.iteri
          (fun j _ -> acc := Cx.add !acc (Cx.mul (Mat.get coeff i j) old.(j).(c)))
          rows;
        Mat.set expected r c !acc
      done)
    rows;
  let scratch = Mat.create 2 8 in
  Mat.mix_rows_inplace u ~rows ~coeff ~scratch;
  Alcotest.check mat "mix_rows_inplace = gather/combine reference" expected u

(* --- unrolled 4x4 product and series exponential ----------------------- *)

(* The generic [Kernels.mul] loop — row, k, column order, terms whose
   a-entry is +-0 skipped — kept here as the reference the unrolled 4x4
   path must reproduce bit for bit. *)
let generic_mul ~m ~n ~p a b =
  let dst = Array.make (2 * m * p) 0.0 in
  for r = 0 to m - 1 do
    for k = 0 to n - 1 do
      let are = a.(2 * ((r * n) + k)) and aim = a.((2 * ((r * n) + k)) + 1) in
      if are <> 0.0 || aim <> 0.0 then
        for c = 0 to p - 1 do
          let bre = b.(2 * ((k * p) + c))
          and bim = b.((2 * ((k * p) + c)) + 1) in
          let oi = 2 * ((r * p) + c) in
          dst.(oi) <- dst.(oi) +. ((are *. bre) -. (aim *. bim));
          dst.(oi + 1) <- dst.(oi + 1) +. ((are *. bim) +. (aim *. bre))
        done
    done
  done;
  dst

let same_bits x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x y

(* Entries that stress the dropped zero-skip: exact +0.0 and -0.0,
   subnormals and ordinary values.  The share of zeros is drawn per
   operand pair (up to 90%), so some products have whole +-0 terms and
   entries whose every term is -0.0 — the case where the unrolled chain
   must still start from +0.0. *)
let gen_edge_floats =
  QCheck.Gen.(
    oneofl [ 0.1; 0.5; 0.9 ] >>= fun zeros ->
    let entry =
      float_bound_inclusive 1.0 >>= fun u ->
      oneofl [ 1.0; -1.0 ] >>= fun sign ->
      if u < zeros then return (sign *. 0.0)
      else
        frequency
          [
            ( 1,
              map
                (fun v -> sign *. Float.ldexp v (-1060))
                (float_bound_inclusive 1.0) );
            (3, float_range (-1.0) 1.0);
          ]
    in
    pair (array_size (return 32) entry) (array_size (return 32) entry))

let arb_mul4_operands =
  QCheck.make
    ~print:(fun (a, b) ->
      let show x =
        String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") x))
      in
      show a ^ " * " ^ show b)
    gen_edge_floats

let prop_mul4_bit_identical =
  QCheck.Test.make ~name:"4x4 unrolled mul = generic loop bit-for-bit"
    ~count:500 arb_mul4_operands (fun (a, b) ->
      (* operands at odd offsets inside NaN-filled arrays *)
      let place off x =
        let buf = Array.make (off + 40) Float.nan in
        Array.blit x 0 buf off 32;
        buf
      in
      let dst = Array.make 40 Float.nan in
      Kernels.mul ~m:4 ~n:4 ~p:4 (place 6 a) 6 (place 2 b) 2 dst 4;
      same_bits (Array.sub dst 4 32) (generic_mul ~m:4 ~n:4 ~p:4 a b))

(* exp(-i t H) by the term-by-term degree-12 Taylor series under the
   same one-norm scaling and repeated squaring, kept here as the
   reference for the Paterson-Stockmeyer kernel. *)
let taylor_expi h t =
  let n = Mat.rows h in
  let norm = Float.abs t *. Mat.one_norm h in
  let sq =
    if norm <= 0.5 then 0
    else int_of_float (Float.ceil (Float.log2 (norm /. 0.5)))
  in
  let a = Mat.scale (Cx.make 0.0 (-.t /. Float.pow 2.0 (float_of_int sq))) h in
  let acc = ref (Mat.identity n) and term = ref (Mat.identity n) in
  for k = 1 to 12 do
    term := Mat.scale_re (1.0 /. float_of_int k) (Mat.mul !term a);
    acc := Mat.add !acc !term
  done;
  for _ = 1 to sq do
    acc := Mat.mul !acc !acc
  done;
  !acc

(* The series kernel at every dim, 2 included (where [Expm] takes the
   closed form instead); unit one-norm Hermitians, so t in [0.05, 8]
   spans 0 to 4 squarings. *)
let prop_expm_matches_taylor =
  QCheck.Test.make ~name:"series expm = sequential Taylor-12 reference to 1e-13"
    ~count:80
    (QCheck.make
       ~print:(fun (n, seed, t) -> Printf.sprintf "dim %d seed %d t %g" n seed t)
       QCheck.Gen.(
         triple (int_range 2 16) (int_bound 1_000_000) (float_range 0.05 8.0)))
    (fun (n, seed, t) ->
      let h = seeded_hermitian seed n in
      let h = Mat.scale_re (1.0 /. Mat.one_norm h) h in
      let u = Mat.create n n in
      Kernels.expi_at ~d:n (Mat.data h) 0 [| t |] 0 (Mat.data u) 0
        (Array.make (Kernels.expi_scratch n) 0.0);
      Mat.approx_equal ~eps:1e-13 u (taylor_expi h t))

(* --- qcheck properties ------------------------------------------------- *)

let gen_hermitian =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_bound 1_000_000 >>= fun seed -> return (seeded_hermitian seed n))

let arb_hermitian = QCheck.make ~print:Mat.to_string gen_hermitian

let prop_expm_unitary =
  QCheck.Test.make ~name:"expm of skew-hermitian is unitary" ~count:40
    arb_hermitian (fun h -> Mat.is_unitary ~eps:1e-7 (Expm.expi_hermitian h 0.9))

let prop_eig_real_eigenvalues_sum =
  QCheck.Test.make ~name:"eig: sum of eigenvalues = trace" ~count:40 arb_hermitian
    (fun h ->
      let d = Eig.hermitian h in
      let s = Array.fold_left ( +. ) 0.0 d.Eig.eigenvalues in
      Float.abs (s -. Cx.re (Mat.trace h)) < 1e-7)

let prop_kron_unitary =
  QCheck.Test.make ~name:"kron of unitaries is unitary" ~count:20
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let u = seeded_unitary (abs a + 1) 2 and v = seeded_unitary (abs b + 2) 3 in
      Mat.is_unitary ~eps:1e-7 (Mat.kron u v))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_expm_unitary; prop_eig_real_eigenvalues_sum; prop_kron_unitary ]

let kernel_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mul_matches_naive;
      prop_mul_into_matches_mul;
      prop_kron_matches_naive;
      prop_adjoint_matches_naive;
      prop_trace_mul_matches;
      prop_elementwise_alias;
      prop_canonical_phase_random;
      prop_mul4_bit_identical;
      prop_expm_matches_taylor;
    ]
  @ [
      Alcotest.test_case "mul_into/adjoint_into reject aliasing" `Quick
        test_mul_into_rejects_aliasing;
      Alcotest.test_case "mix_rows_inplace reference" `Quick
        test_mix_rows_matches_reference;
    ]

let () =
  Alcotest.run "linalg"
    [
      ("cx", [ Alcotest.test_case "basics" `Quick test_cx_basics ]);
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "adjoint involution" `Quick test_mat_adjoint_involution;
          Alcotest.test_case "mul associativity" `Quick test_mat_mul_assoc;
          Alcotest.test_case "adjoint antihomomorphism" `Quick
            test_mat_adjoint_antihomomorphism;
          Alcotest.test_case "kron dims/values" `Quick test_kron_dims_and_values;
          Alcotest.test_case "kron mixed product" `Quick test_kron_mixed_product;
          Alcotest.test_case "trace invariance" `Quick test_trace_invariance;
          Alcotest.test_case "hs fidelity phase invariance" `Quick
            test_hs_fidelity_phase_invariance;
          Alcotest.test_case "hs distance detects difference" `Quick
            test_hs_distance_detects_difference;
          Alcotest.test_case "canonical phase" `Quick test_canonical_phase;
        ] );
      ( "eig",
        [
          Alcotest.test_case "reconstruction" `Quick test_eig_reconstruction;
          Alcotest.test_case "eigenvector property" `Quick
            test_eig_eigenvector_property;
          Alcotest.test_case "expi unitary" `Quick test_expi_unitary;
        ] );
      ( "expm",
        [
          Alcotest.test_case "exp(0)=I" `Quick test_expm_zero;
          Alcotest.test_case "matches eig" `Quick test_expm_matches_eig;
          Alcotest.test_case "additivity" `Quick test_expm_additive_commuting;
        ] );
      ( "gf2",
        [
          Alcotest.test_case "rank identity" `Quick test_gf2_rank_identity;
          Alcotest.test_case "rank dependent rows" `Quick test_gf2_rank_dependent_rows;
          Alcotest.test_case "gauss ops replay" `Quick test_gf2_gauss_ops_replay;
        ] );
      ("kernels", kernel_cases);
      ("properties", qcheck_cases);
    ]
