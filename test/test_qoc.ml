open Epoc_linalg
open Epoc_circuit
open Epoc_qoc
open Epoc_pulse

let mat = Alcotest.testable Mat.pp (Mat.approx_equal ~eps:1e-9)

let batch_ok what = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Epoc_error.to_string e)

(* A GRAPE solve that must not error. *)
let optimize ?options ?rng hw ~target ~slots =
  batch_ok "GRAPE" (Grape.optimize_r ?options ?rng hw ~target ~slots)

(* --- hardware ------------------------------------------------------------ *)

let test_hardware_drift () =
  let hw = Hardware.make 3 in
  let h0 = Hardware.drift hw in
  Alcotest.(check int) "dim" 8 (Mat.rows h0);
  Alcotest.(check bool) "hermitian" true (Mat.is_hermitian h0);
  Alcotest.(check (list (pair int int))) "chain coupling" [ (0, 1); (1, 2) ]
    (List.map (fun (a, b, _) -> (a, b)) hw.Hardware.couplings)

let test_hardware_controls () =
  let hw = Hardware.make 2 in
  let cs = Hardware.controls hw in
  Alcotest.(check int) "x+y per qubit" 4 (List.length cs);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Hardware.label ^ " hermitian")
        true
        (Mat.is_hermitian c.Hardware.matrix))
    cs

let test_hardware_single_qubit_no_drift () =
  let hw = Hardware.make 1 in
  Alcotest.check mat "no drift on 1 qubit" (Mat.zeros 2 2) (Hardware.drift hw)

let test_reference_times () =
  let hw = Hardware.make 2 in
  Alcotest.(check (float 0.2)) "pi pulse 10ns" 10.0
    (Hardware.single_qubit_gate_time hw);
  Alcotest.(check (float 0.5)) "cz-equivalent 60ns" 60.0
    (Hardware.entangling_gate_time hw)

(* --- grape ---------------------------------------------------------------- *)

let test_grape_identity_1q () =
  let hw = Hardware.make 1 in
  let r = optimize hw ~target:(Mat.identity 2) ~slots:4 in
  Alcotest.(check bool)
    (Printf.sprintf "identity fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity > 0.999)

let test_grape_x_gate () =
  let hw = Hardware.make 1 in
  let r = optimize hw ~target:(Gate.matrix Gate.X) ~slots:24 in
  Alcotest.(check bool)
    (Printf.sprintf "x fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity >= 0.999);
  (* achieved propagator is consistent with the reported fidelity *)
  Alcotest.(check (float 1e-9)) "achieved consistency" r.Grape.fidelity
    (Mat.hs_fidelity (Gate.matrix Gate.X) r.Grape.achieved)

let test_grape_hadamard () =
  let hw = Hardware.make 1 in
  let r = optimize hw ~target:(Gate.matrix Gate.H) ~slots:24 in
  Alcotest.(check bool)
    (Printf.sprintf "h fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity >= 0.999)

let test_grape_cnot () =
  let hw = Hardware.make 2 in
  let r = optimize hw ~target:(Gate.matrix Gate.CX) ~slots:160 in
  Alcotest.(check bool)
    (Printf.sprintf "cx fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity >= 0.999)

let test_grape_respects_amplitude_limit () =
  let hw = Hardware.make 1 in
  let r = optimize hw ~target:(Gate.matrix Gate.Y) ~slots:24 in
  Array.iter
    (Array.iter (fun a ->
         Alcotest.(check bool) "amplitude clipped" true
           (Float.abs a <= hw.Hardware.drive_limit +. 1e-12)))
    r.Grape.pulse.Grape.amplitudes

let test_grape_propagate_unitary () =
  let hw = Hardware.make 2 in
  let r = optimize hw ~target:(Gate.matrix Gate.CZ) ~slots:120 in
  Alcotest.(check bool) "propagator unitary" true
    (Mat.is_unitary ~eps:1e-7 r.Grape.achieved)

let test_grape_too_short_fails () =
  (* 2 ns cannot implement an X pi-rotation at the drive limit *)
  let hw = Hardware.make 1 in
  let r = optimize hw ~target:(Gate.matrix Gate.X) ~slots:4 in
  Alcotest.(check bool)
    (Printf.sprintf "infeasible duration fidelity %.4f" r.Grape.fidelity)
    true
    (r.Grape.fidelity < 0.99)

(* --- fanned-out grape ------------------------------------------------------- *)

(* The fan-out contract is exact: a solve's result must be bit-identical
   to what the same solve returns alone — same amplitudes, fidelity,
   propagator, convergence series — regardless of which other solves
   share the pool or how many domains run them.  Compare with structural
   [=] on floats, never an eps. *)

let check_result_exact what (a : Grape.result) (b : Grape.result) =
  Alcotest.(check (float 0.0))
    (what ^ ": fidelity") a.Grape.fidelity b.Grape.fidelity;
  Alcotest.(check int) (what ^ ": iterations") a.Grape.iterations
    b.Grape.iterations;
  Alcotest.(check string)
    (what ^ ": stop")
    (Grape.stop_reason_name a.Grape.stop)
    (Grape.stop_reason_name b.Grape.stop);
  Alcotest.(check bool)
    (what ^ ": amplitudes bit-identical")
    true
    (a.Grape.pulse.Grape.amplitudes = b.Grape.pulse.Grape.amplitudes);
  Alcotest.(check bool)
    (what ^ ": achieved bit-identical")
    true
    (Mat.data a.Grape.achieved = Mat.data b.Grape.achieved);
  Alcotest.(check bool)
    (what ^ ": series bit-identical")
    true
    (a.Grape.series = b.Grape.series)

(* Solve every [(hw, options, target, slots, rng)] with [optimize_r],
   fanned out over [pool] with one workspace per solve, as pulse
   resolution does; results in input order. *)
let fan_out pool jobs =
  Epoc_parallel.Pool.map pool
    (fun (hw, options, target, slots, rng) ->
      Grape.optimize_r ~options ~rng ~pool ~workspace:(Grape.workspace ()) hw
        ~target ~slots)
    jobs

(* No pool, a 1-domain pool and a 4-domain pool. *)
let fan_out_pools =
  [
    ("no pool", Epoc_parallel.Pool.sequential);
    ("1 domain", Epoc_parallel.Pool.create ~domains:1 ());
    ("4 domains", Epoc_parallel.Pool.create ~domains:4 ());
  ]

let test_grape_batch_matches_solo () =
  (* mixed targets, ragged slot counts, one warm-started job, all fanned
     out together: each must reproduce the standalone solve exactly *)
  let hw = Hardware.make 1 in
  let opts = { Grape.default_options with Grape.iterations = 40 } in
  let warm =
    {
      opts with
      Grape.init =
        Some
          (optimize ~options:opts
             ~rng:(Random.State.make [| 11 |])
             hw ~target:(Gate.matrix Gate.H) ~slots:20)
            .Grape.pulse.Grape.amplitudes;
    }
  in
  let specs =
    [
      (Gate.matrix Gate.X, 24, opts);
      (Gate.matrix Gate.H, 20, warm);
      (Gate.matrix Gate.Y, 16, opts);
    ]
  in
  let rng i = Random.State.make [| 7; i |] in
  let solo =
    List.mapi
      (fun i (target, slots, options) ->
        optimize ~options ~rng:(rng i) hw ~target ~slots)
      specs
  in
  (* fresh RNGs per fan-out: a cold start draws from its solve's RNG *)
  let jobs () =
    List.mapi
      (fun i (target, slots, options) -> (hw, options, target, slots, rng i))
      specs
  in
  List.iter
    (fun (what, pool) ->
      List.iteri
        (fun i (solo, r) ->
          let what = Printf.sprintf "%s job %d" what i in
          check_result_exact what solo (batch_ok what r))
        (List.combine solo (fan_out pool (jobs ()))))
    fan_out_pools

let test_grape_checkpoint_pool_invariance () =
  (* a 3-qubit, 256-slot solve is large enough to split into checkpoint
     segments; its result must not depend on how many domains sweep
     them *)
  Alcotest.(check bool)
    "solve splits into checkpoint segments" true
    (Grape.segments ~dim:8 ~slots:256 > 1);
  let hw = Hardware.make 3 in
  let target =
    Mat.kron (Gate.matrix Gate.H) (Mat.kron (Gate.matrix Gate.X) (Gate.matrix Gate.H))
  in
  let opts = { Grape.default_options with Grape.iterations = 3 } in
  let solve ?pool () =
    match
      Grape.optimize_r ~options:opts
        ~rng:(Random.State.make [| 13 |])
        ?pool hw ~target ~slots:256
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "solve failed: %s" (Epoc_error.to_string e)
  in
  let solo = solve () in
  let one = solve ~pool:(Epoc_parallel.Pool.create ~domains:1 ()) () in
  let four = solve ~pool:(Epoc_parallel.Pool.create ~domains:4 ()) () in
  check_result_exact "domains=1 vs no pool" solo one;
  check_result_exact "domains=4 vs no pool" solo four

(* --- pinned bits --------------------------------------------------------- *)

(* MD5 of every bit a solve reports: amplitudes, fidelity, realized
   propagator, iterations, stop reason, warm-start flag and the whole
   convergence series. *)
let result_digest (r : Grape.result) =
  let b = Buffer.create 4096 in
  let fl x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  Array.iter (Array.iter fl) r.Grape.pulse.Grape.amplitudes;
  fl r.Grape.fidelity;
  Array.iter fl (Mat.data r.Grape.achieved);
  Buffer.add_string b
    (Printf.sprintf "%d;%s;%b;" r.Grape.iterations
       (Grape.stop_reason_name r.Grape.stop)
       r.Grape.warm_start);
  List.iter
    (fun (s : Grape.sample) ->
      Buffer.add_string b (Printf.sprintf "%d;" s.Grape.it);
      fl s.Grape.s_fidelity;
      fl s.Grape.s_grad_norm;
      fl s.Grape.s_step)
    r.Grape.series;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Warm-start rows in exact arithmetic: [nc] controls of [len] slots. *)
let warm_rows hw ~len =
  let nc = List.length (Hardware.controls hw) in
  let limit = hw.Hardware.drive_limit in
  Array.init nc (fun j ->
      Array.init len (fun k ->
          limit *. float_of_int ((((k * 37) + (j * 11)) mod 17) - 8) /. 40.0))

(* One fixed mixed batch over 1-4 qubits: ragged slot counts, every
   third job warm-started, all three stop reasons, and a 3-qubit
   256-slot job that splits into checkpoint segments.  (qubits, target, slots, iterations, patience,
   warm, stop, digest); the digests were recorded on x86-64 Linux and
   pin the solver's floating-point operation sequence: a change to any
   sum, product or exponential in the loop moves them. *)
let pinned_jobs =
  let g = Gate.matrix in
  let kron = Mat.kron in
  [
    (1, g Gate.X, 24, 80, 50, false, "target",
      "9adc263a31caa181e6162cfd95ade9c7");
    (1, g Gate.H, 24, 80, 50, false, "target",
      "0438d624537611d5a40cc2df03c843f2");
    (1, g Gate.X, 4, 80, 10, true, "patience",
      "4b5f2859a92fa885232326260bfcae13");
    (1, g Gate.Y, 16, 12, 50, false, "budget",
      "9ba57e374cd60c2c0920738a1b1ae9e7");
    (2, g Gate.CZ, 120, 300, 50, false, "target",
      "3a2ed4624e2ab38fe4bf546cd8e07e91");
    (2, g Gate.CX, 8, 40, 5, true, "patience",
      "b3bb76549802fbc7ad9fb0ab40d55ba4");
    (2, g Gate.CX, 60, 25, 50, false, "budget",
      "df225e2f4abf2f41e039f067fadfc46f");
    (3, kron (g Gate.H) (kron (g Gate.X) (g Gate.H)), 256, 3, 50, false,
      "budget", "57953c5e23632fcd85fe745b0708f475");
    (3, kron (g Gate.X) (kron (g Gate.X) (g Gate.I)), 40, 6, 50, true,
      "budget", "387e7ab342196d6a9a31bda5cdc77a90");
    (3, kron (g Gate.CX) (g Gate.H), 24, 20, 3, false, "patience",
      "65f68eed11072960a23833e95248b6cb");
    (4, kron (g Gate.CX) (g Gate.CZ), 20, 3, 50, false, "budget",
      "11a7402a87c68a524579f03422dbd0be");
    (4, kron (g Gate.H) (kron (g Gate.CX) (g Gate.X)), 40, 2, 50, true,
      "budget", "8db79b5fe6c036673158109c0d85a0fc");
  ]

let test_grape_pinned_bits () =
  Alcotest.(check int)
    "the 3-qubit 256-slot job is segmented" 8
    (Grape.segments ~dim:8 ~slots:256);
  let job i (n, target, slots, iterations, patience, warm, _, _) =
    let hw = Hardware.make n in
    let options =
      {
        Grape.default_options with
        Grape.iterations;
        patience;
        init = (if warm then Some (warm_rows hw ~len:(7 + i)) else None);
      }
    in
    (hw, options, target, slots, Random.State.make [| 31; i |])
  in
  let check what i r =
    let _, _, _, _, _, _, stop, digest = List.nth pinned_jobs i in
    let r = batch_ok what r in
    Alcotest.(check string) (what ^ ": stop") stop
      (Grape.stop_reason_name r.Grape.stop);
    Alcotest.(check string) (what ^ ": digest") digest (result_digest r)
  in
  List.iter
    (fun (what, pool) ->
      List.iteri
        (fun i r -> check (Printf.sprintf "%s job %d" what i) i r)
        (fan_out pool (List.mapi job pinned_jobs)))
    fan_out_pools

(* --- loop allocation ------------------------------------------------------ *)

(* Marginal minor words of one more iteration: the difference between a
   600- and a 300-iteration solve, per iteration, on one domain and one
   reused workspace.  Every per-solve array (best-so-far and the four
   series arrays, one slot per iteration) exceeds [Max_young_wosize]
   (256 words) at both budgets, so each goes straight to the major heap
   in both solves and only the loop's own allocation differs.  The
   target is unreachable and patience equals the budget, so every
   solve takes every iteration.  The bound is one convergence sample
   (a 4-field record with three boxed floats and a cons cell: 14
   words); the shapes cover the closed-form and series exponentials and
   a segmented solve. *)
let test_grape_iteration_allocation () =
  Alcotest.(check int) "3 qubits, 256 slots: 8 segments" 8
    (Grape.segments ~dim:8 ~slots:256);
  List.iter
    (fun (n, slots) ->
      let hw = Hardware.make n in
      let target = Mat.identity (1 lsl n) in
      let workspace = Grape.workspace () in
      let solve iterations =
        let options =
          {
            Grape.default_options with
            Grape.iterations;
            fidelity_target = 2.0;
            patience = iterations;
          }
        in
        let r =
          batch_ok "GRAPE"
            (Grape.optimize_r ~options ~rng:(Random.State.make [| 5 |])
               ~workspace hw ~target ~slots)
        in
        if r.Grape.iterations <> iterations then
          Alcotest.failf "%d-iteration solve stopped at %d" iterations
            r.Grape.iterations
      in
      (* sizes the workspace *)
      solve 1;
      let w0 = Gc.minor_words () in
      solve 300;
      let w1 = Gc.minor_words () in
      solve 600;
      let w2 = Gc.minor_words () in
      let per_iter = (w2 -. w1 -. (w1 -. w0)) /. 300.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d qubits, %d slots: %.2f minor words per iteration"
           n slots per_iter)
        true (per_iter <= 14.0))
    [ (1, 24); (2, 112); (3, 112); (3, 256) ]

(* --- patience stop ---------------------------------------------------------- *)

(* The (iteration, reason) a fidelity series stops at under the solver's
   per-iteration order: the target check, then [Grape.patience_stop] on
   the best-so-far series; a series that reaches its last iteration ends
   by budget. *)
let stop_of_series ~target ~patience ~iterations (f : float array) =
  let best = Array.make iterations 0.0 in
  let rec go t b =
    let fnow = f.(t - 1) in
    let b = if fnow > b then fnow else b in
    best.(t - 1) <- b;
    if fnow >= target then (t, Grape.Target_hit)
    else if Grape.patience_stop ~target ~patience ~iterations best t then
      (t, Grape.Patience)
    else if t = iterations then (t, Grape.Budget)
    else go (t + 1) b
  in
  go 1 0.0

let running_best f =
  let b = ref 0.0 in
  Array.map
    (fun x ->
      if x > !b then b := x;
      !b)
    f

(* The doubled projection the rule compares with the target, as the
   test states it: best_t + 2 (best_t - best_(t-p)) / p (n - t). *)
let projection ~patience ~iterations best t =
  let now = best.(t - 1) in
  now
  +. (2.0 *. (now -. best.(t - 1 - patience)) /. float_of_int patience
     *. float_of_int (iterations - t))

(* A seeded fidelity series of [n] values in (0, 1): runs of exact
   plateaus (the same float repeated), real gains of 1e-7 to 1e-2 per
   iteration, and transient dips below the current level. *)
let gen_series rs n =
  let f = Array.make n 0.0 in
  let level = ref (0.3 +. Random.State.float rs 0.6) in
  let i = ref 0 in
  while !i < n do
    let len = 1 + Random.State.int rs 40 in
    let kind = Random.State.int rs 3 in
    let rate = 10.0 ** -.(2.0 +. Random.State.float rs 5.0) in
    for _ = 1 to len do
      if !i < n then begin
        f.(!i) <-
          (match kind with
          | 0 -> !level
          | 1 ->
              level := Float.min 0.999999 (!level +. rate);
              !level
          | _ -> Float.max 1e-6 (!level -. rate));
        incr i
      end
    done
  done;
  f

(* (seed, patience, iterations, target) *)
let arb_stop_case =
  QCheck.make
    ~print:(fun (seed, p, n, target) ->
      Printf.sprintf "seed=%d patience=%d iterations=%d target=%.17g" seed p n
        target)
    QCheck.Gen.(
      quad (int_bound 1_000_000) (int_range 1 80) (int_range 1 300)
        (float_range 0.9 0.9999))

(* The rule, point by point: it stops exactly when patience < t <
   iterations and the doubled projection falls short of the target.  So
   no stop in the first window, none on the last iteration (that
   attempt keeps [Budget]), none while the projection reaches the
   target, and none at all when [patience >= iterations]. *)
let prop_patience_rule =
  QCheck.Test.make ~name:"patience stop is the doubled-projection rule"
    ~count:300 arb_stop_case (fun (seed, patience, iterations, target) ->
      let best =
        running_best (gen_series (Random.State.make [| seed |]) iterations)
      in
      List.for_all
        (fun t ->
          Grape.patience_stop ~target ~patience ~iterations best t
          = (t > patience && t < iterations
            && projection ~patience ~iterations best t < target))
        (List.init iterations (fun i -> i + 1)))

(* +-1 ulp on every fidelity of a series moves neither the stop
   iteration nor the stop reason.  Series with a decision up to the stop
   within 1e-9 of the target are discarded: at the threshold itself any
   rounding flips a comparison.  A counter of iterations without strict
   improvement fails this on plateaus: one ulp up restarts it. *)
let prop_ulp_stable =
  QCheck.Test.make ~name:"stop survives +-1 ulp on every fidelity" ~count:300
    (QCheck.pair arb_stop_case QCheck.(int_bound 1_000_000))
    (fun ((seed, patience, iterations, target), pseed) ->
      let f = gen_series (Random.State.make [| seed |]) iterations in
      let t_stop, reason = stop_of_series ~target ~patience ~iterations f in
      let best = running_best f in
      let margin = 1e-9 in
      let clear = ref true in
      for t = 1 to t_stop do
        if Float.abs (f.(t - 1) -. target) <= margin then clear := false;
        if
          t > patience && t < iterations
          && Float.abs (projection ~patience ~iterations best t -. target)
             <= margin
        then clear := false
      done;
      QCheck.assume !clear;
      let prs = Random.State.make [| pseed |] in
      let g =
        Array.map
          (fun x -> if Random.State.bool prs then Float.succ x else Float.pred x)
          f
      in
      stop_of_series ~target ~patience ~iterations g = (t_stop, reason))

let test_grape_patience_truncates () =
  (* the infeasible X solve of [too short fails]: the rule cuts it well
     before the budget, and the cut run is the uncut run's prefix *)
  let hw = Hardware.make 1 in
  let target = Gate.matrix Gate.X in
  let d = Grape.default_options in
  let cut = optimize hw ~target ~slots:4 in
  let full =
    optimize
      ~options:{ d with Grape.patience = d.Grape.iterations }
      hw ~target ~slots:4
  in
  Alcotest.(check string) "cut by patience" "patience"
    (Grape.stop_reason_name cut.Grape.stop);
  Alcotest.(check bool)
    (Printf.sprintf "stopped at %d < %d" cut.Grape.iterations d.Grape.iterations)
    true
    (cut.Grape.iterations < d.Grape.iterations);
  Alcotest.(check string) "uncut run ends by budget" "budget"
    (Grape.stop_reason_name full.Grape.stop);
  Alcotest.(check int) "uncut run takes every iteration" d.Grape.iterations
    full.Grape.iterations;
  (* every sample but the last is bit-identical; the last one is the
     stop sample (no gradient), at the same iteration and fidelity *)
  let n = List.length cut.Grape.series in
  let head = List.filteri (fun i _ -> i < n) full.Grape.series in
  List.iteri
    (fun i ((a : Grape.sample), (b : Grape.sample)) ->
      if i < n - 1 then
        Alcotest.(check bool)
          (Printf.sprintf "sample %d bit-identical" a.Grape.it)
          true (a = b)
      else begin
        Alcotest.(check int) "stop sample iteration" b.Grape.it a.Grape.it;
        Alcotest.(check (float 0.0))
          "stop sample fidelity" b.Grape.s_fidelity a.Grape.s_fidelity
      end)
    (List.combine cut.Grape.series head);
  (* the solver stopped where its own series says the rule stops *)
  let fids =
    Array.of_list (List.map (fun s -> s.Grape.s_fidelity) full.Grape.series)
  in
  let t, reason =
    stop_of_series ~target:d.Grape.fidelity_target ~patience:d.Grape.patience
      ~iterations:d.Grape.iterations fids
  in
  Alcotest.(check int) "series rule agrees on the iteration" cut.Grape.iterations t;
  Alcotest.(check string) "series rule agrees on the reason" "patience"
    (Grape.stop_reason_name reason)

(* --- latency --------------------------------------------------------------- *)

let test_latency_x_speed_limit () =
  let hw = Hardware.make 1 in
  match Latency.find_min_duration_r hw (Gate.matrix Gate.X) with
  | Error e ->
      Alcotest.failf "x duration search failed: %s" (Epoc_error.to_string e)
  | Ok s ->
      (* quantum speed limit: pi / drive_limit = 10 ns *)
      Alcotest.(check bool)
        (Printf.sprintf "min duration %.1f ns" s.Latency.duration)
        true
        (s.Latency.duration >= 9.0 && s.Latency.duration <= 14.0)

let test_latency_rz_is_fast () =
  (* small rotations need much shorter pulses than pi rotations *)
  let hw = Hardware.make 1 in
  match Latency.find_min_duration_r hw (Gate.matrix (Gate.RX 0.3)) with
  | Error e ->
      Alcotest.failf "rx duration search failed: %s" (Epoc_error.to_string e)
  | Ok s ->
      Alcotest.(check bool)
        (Printf.sprintf "rx(0.3) %.1f ns" s.Latency.duration)
        true (s.Latency.duration <= 4.0)

(* --- pinned duration searches ----------------------------------------------- *)

(* The attempt list of a search, one "slots:iterations:stop" per GRAPE
   attempt in run order. *)
let attempts_string (s : Latency.search_result) =
  String.concat " "
    (List.map
       (fun (a : Latency.attempt) ->
         Printf.sprintf "%d:%d:%s" a.Latency.att_slots a.Latency.att_iterations
           (Grape.stop_reason_name a.Latency.att_stop))
       s.Latency.attempts)

(* What a pinned search must reproduce: the attempt list, the final slot
   count and the digest of the final result, or the error of a search
   that found no bracket. *)
type search_pin =
  | Found of { attempts : string; slots : int; digest : string }
  | Failed of string

(* One search per branch of the bracket-then-bisect recursion, with the
   outcome recorded on x86-64 Linux: (name, run, expected, rng_after).
   [run] returns the search outcome and the shared RNG, if any;
   [rng_after] pins the next bits that RNG yields after the search, i.e.
   how many cold-start draws the search's attempts took. *)
let pinned_searches =
  let x = Gate.matrix Gate.X in
  let h1 = Hardware.make 1 and h2 = Hardware.make 2 in
  let opts = Latency.default_options in
  let cz_guess =
    Latency.guess_slots h2
      (Circuit.of_ops 2 [ { Circuit.gate = Gate.CZ; qubits = [ 0; 1 ] } ])
  in
  let plain ?options ?initial_guess ?init hw target () =
    (Latency.find_min_duration_r ?options ?initial_guess ?init hw target, None)
  in
  let shared seed ?options ?initial_guess hw target () =
    let rng = Random.State.make seed in
    ( Latency.find_min_duration_r ?options ?initial_guess ~rng hw target,
      Some rng )
  in
  [
    ( "fail, double up, bisect",
      plain h1 x,
      Found
        {
          attempts =
            "2:57:patience 4:61:patience 8:62:patience 16:66:patience 32:23:target 24:12:target 20:16:target";
          slots = 20;
          digest = "faecdc1b0d0295d1fe28bd9485269889";
        },
      None );
    ( "succeed, halve down, bisect",
      plain ~initial_guess:64 h1 x,
      Found
        {
          attempts =
            "64:25:target 32:23:target 16:66:patience 24:12:target 20:16:target";
          slots = 20;
          digest = "faecdc1b0d0295d1fe28bd9485269889";
        },
      None );
    ( "halving stopped by min_slots",
      plain
        ~options:{ opts with Latency.min_slots = 5; granularity = 1 }
        ~initial_guess:12 h1
        (Gate.matrix (Gate.RX 0.3)),
      Found
        {
          attempts = "12:3:target 6:5:target 5:6:target";
          slots = 5;
          digest = "2684cce87bf5f5d3044db953299307a0";
        },
      None );
    ( "doubling past max_slots",
      shared [| 41; 5; 1 |]
        ~options:{ opts with Latency.max_slots = 12 }
        h1 x,
      Failed "no viable pulse duration at grape (searched up to 12 slots)",
      Some 227937511 );
    ( "warm start",
      plain ~initial_guess:16 ~init:(warm_rows h1 ~len:9) h1
        (Gate.matrix Gate.H),
      Found
        {
          attempts =
            "16:66:patience 32:36:target 24:12:target 20:94:patience";
          slots = 24;
          digest = "052a25aaf25b42c9e884c67049850b3b";
        },
      None );
    ( "shared rng",
      shared [| 41; 7; 2 |] ~initial_guess:8 h1 (Gate.matrix Gate.Y),
      Found
        {
          attempts =
            "8:63:patience 16:65:patience 32:9:target 24:12:target 20:15:target";
          slots = 20;
          digest = "524647910a5f36e44176be94447f0992";
        },
      Some 623521845 );
    ( "2-qubit cz",
      plain ~initial_guess:cz_guess h2 (Gate.matrix Gate.CZ),
      Found
        {
          attempts =
            "113:134:target 56:100:patience 84:150:patience 98:199:patience 105:248:patience 109:242:target";
          slots = 109;
          digest = "6586cd776658cc404c245b294228e856";
        },
      None );
  ]

let test_latency_pinned_searches () =
  List.iter
    (fun (name, run, expected, rng_after) ->
      let outcome, rng = run () in
      (match (expected, outcome) with
      | Found e, Ok s ->
          Alcotest.(check string) (name ^ ": attempts") e.attempts
            (attempts_string s);
          Alcotest.(check int) (name ^ ": slots") e.slots s.Latency.slots;
          Alcotest.(check string) (name ^ ": digest") e.digest
            (result_digest s.Latency.result)
      | Failed e, Error err ->
          Alcotest.(check string) (name ^ ": error") e (Epoc_error.to_string err)
      | Found _, Error err ->
          Alcotest.failf "%s: unexpected error %s" name (Epoc_error.to_string err)
      | Failed _, Ok s ->
          Alcotest.failf "%s: unexpected success at %d slots (%s)" name
            s.Latency.slots (attempts_string s));
      match (rng_after, rng) with
      | Some bits, Some r ->
          Alcotest.(check int) (name ^ ": rng after") bits (Random.State.bits r)
      | _ -> ())
    pinned_searches

let test_estimator_calibration () =
  let hw = Hardware.make 2 in
  let cx = Circuit.of_ops 2 [ { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] } ] in
  let e = Latency.estimate hw cx in
  (* measured GRAPE minimum is ~56 ns; the estimate must be within 20% *)
  Alcotest.(check bool)
    (Printf.sprintf "cx estimate %.1f ns" e.Latency.est_duration)
    true
    (e.Latency.est_duration > 45.0 && e.Latency.est_duration < 67.0)

let test_estimator_virtual_z_free () =
  let hw = Hardware.make 1 in
  let rz = Circuit.of_ops 1 [ { Circuit.gate = Gate.RZ 1.0; qubits = [ 0 ] } ] in
  let e = Latency.estimate hw rz in
  Alcotest.(check (float 1e-9)) "virtual z costs dt only" hw.Hardware.dt
    e.Latency.est_duration

let test_guess_slots_positive () =
  let hw = Hardware.make 2 in
  let c = Circuit.of_ops 2 [ { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] } ] in
  Alcotest.(check bool) "positive guess" true (Latency.guess_slots hw c > 10)

(* --- schedule --------------------------------------------------------------- *)

let instr qubits duration fidelity label =
  { Schedule.qubits; duration; fidelity; label; pulse = None }

let test_schedule_serial () =
  let s =
    Schedule.schedule ~n:1 [ instr [ 0 ] 10.0 0.999 "a"; instr [ 0 ] 15.0 0.999 "b" ]
  in
  Alcotest.(check (float 1e-9)) "serial latency" 25.0 (Schedule.latency s)

let test_schedule_parallel () =
  let s =
    Schedule.schedule ~n:2 [ instr [ 0 ] 10.0 0.999 "a"; instr [ 1 ] 15.0 0.999 "b" ]
  in
  Alcotest.(check (float 1e-9)) "parallel latency" 15.0 (Schedule.latency s)

let test_schedule_blocking () =
  (* 2q pulse blocks both lines *)
  let s =
    Schedule.schedule ~n:2
      [
        instr [ 0 ] 10.0 0.999 "a"; instr [ 0; 1 ] 50.0 0.99 "cx";
        instr [ 1 ] 10.0 0.999 "b";
      ]
  in
  Alcotest.(check (float 1e-9)) "blocking latency" 70.0 (Schedule.latency s)

let test_schedule_utilization () =
  let full = Schedule.schedule ~n:2 [ instr [ 0; 1 ] 10.0 0.99 "u" ] in
  Alcotest.(check (float 1e-9)) "full utilization" 1.0 (Schedule.utilization full);
  let half = Schedule.schedule ~n:2 [ instr [ 0 ] 10.0 0.99 "u" ] in
  Alcotest.(check (float 1e-9)) "half utilization" 0.5 (Schedule.utilization half)

(* --- library ----------------------------------------------------------------- *)

(* A probe keyed as pulse resolution keys a job: canonical form and key
   once, handed to the keyed lookup. *)
let lib_find lib u =
  let cu = Library.canonicalize lib u in
  Library.find lib ~key:(Library.key cu) cu

let lib_add lib u ~duration ~fidelity =
  let cu = Library.canonicalize lib u in
  Library.add lib ~key:(Library.key cu)
    { Library.unitary = cu; duration; fidelity; pulse = None; context = "" }

let test_library_miss_then_hit () =
  let lib = Library.create () in
  let u = Gate.matrix Gate.CX in
  Alcotest.(check bool) "miss" true (lib_find lib u = None);
  lib_add lib u ~duration:56.0 ~fidelity:0.999;
  (match lib_find lib u with
  | Some e -> Alcotest.(check (float 1e-9)) "duration" 56.0 e.Library.duration
  | None -> Alcotest.fail "expected hit");
  let s = Library.stats lib in
  Alcotest.(check int) "hits" 1 s.Library.hits;
  Alcotest.(check int) "misses" 1 s.Library.misses;
  Alcotest.(check int) "entries" 1 s.Library.entries

let test_library_global_phase_matching () =
  let lib = Library.create ~match_global_phase:true () in
  let u = Gate.matrix (Gate.U3 (0.7, 0.3, 1.1)) in
  lib_add lib u ~duration:8.0 ~fidelity:0.9995;
  let rotated = Mat.scale (Cx.cis 1.234) u in
  Alcotest.(check bool) "phase-rotated hit" true (lib_find lib rotated <> None)

let test_library_phase_sensitive () =
  let lib = Library.create ~match_global_phase:false () in
  let u = Gate.matrix (Gate.U3 (0.7, 0.3, 1.1)) in
  lib_add lib u ~duration:8.0 ~fidelity:0.9995;
  let rotated = Mat.scale (Cx.cis 1.234) u in
  Alcotest.(check bool) "phase-rotated misses" true (lib_find lib rotated = None);
  Alcotest.(check bool) "exact match hits" true (lib_find lib u <> None)

let test_library_distinguishes () =
  let lib = Library.create () in
  lib_add lib (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999;
  Alcotest.(check bool) "different unitary misses" true
    (lib_find lib (Gate.matrix Gate.Y) = None)

let test_library_fingerprint_quantization () =
  (* values straddling zero within rounding distance must land in the same
     fingerprint bucket: -1e-9 rounds to -0.0, which the single
     quantization step normalizes to 0.0 *)
  let near_zero eps = Mat.of_arrays [| [| Cx.make eps (-.eps) |] |] in
  Alcotest.(check bool) "negative zero bucket" true
    (Library.fingerprint (near_zero 1e-9) = Library.fingerprint (near_zero (-1e-9)));
  (* perturbations below the 5-decimal resolution keep the bucket... *)
  let entry x = Mat.of_arrays [| [| Cx.of_float x |] |] in
  Alcotest.(check bool) "sub-resolution perturbation same bucket" true
    (Library.fingerprint (entry 0.123452) = Library.fingerprint (entry 0.1234521));
  (* ...and a full resolution step changes it *)
  Alcotest.(check bool) "distinct values distinct buckets" true
    (Library.fingerprint (entry 0.12345) <> Library.fingerprint (entry 0.12346));
  (* end to end: a (unitary) probe equal up to noise below the matcher's
     epsilon still hits the stored entry *)
  let lib = Library.create () in
  lib_add lib (entry 1.0) ~duration:5.0 ~fidelity:0.999;
  Alcotest.(check bool) "noisy probe hits" true
    (lib_find lib (entry (1.0 +. 1e-9)) <> None)

(* The text the fingerprint digests, built with [Printf] as the library
   built it before it formatted the quantized integers itself.  Every
   persisted pulse-store key rests on this text, so the library must
   digest exactly it. *)
let reference_fingerprint (u : Mat.t) =
  let quantize x = (Float.round (x *. 1e5) +. 0.0) *. 1e-5 in
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%dx%d" (Mat.rows u) (Mat.cols u));
  for r = 0 to Mat.rows u - 1 do
    for c = 0 to Mat.cols u - 1 do
      let z = Mat.get u r c in
      Buffer.add_string b
        (Printf.sprintf "|%.5f,%.5f" (quantize (Cx.re z)) (quantize (Cx.im z)))
    done
  done;
  Digest.string (Buffer.contents b)

(* Matrix entries where formatting is fragile: rounding boundaries
   k·1e-5 and (k+½)·1e-5 with their ±1-ulp neighbours, ±0, tiny
   negatives, magnitudes from 1e7 to 1e16 (around the 1e9 where the
   fast path hands over to [Printf]), nan and inf, and plain values in
   [-1, 1]. *)
let gen_fingerprint_entry =
  QCheck.Gen.(
    let boundary =
      map2
        (fun k half -> (float_of_int k +. if half then 0.5 else 0.0) *. 1e-5)
        (int_range (-200_000) 200_000)
        bool
    in
    let nudged =
      map2
        (fun x d ->
          match d with 0 -> Float.pred x | 1 -> Float.succ x | _ -> x)
        boundary (int_bound 2)
    in
    let large =
      map2 (fun e m -> m *. (10.0 ** float_of_int e)) (int_range 7 16)
        (float_range (-1.0) 1.0)
    in
    frequency
      [
        (4, float_range (-1.0) 1.0);
        (4, nudged);
        (1, large);
        ( 1,
          oneofl
            [
              0.0; -0.0; -1e-300; 1e-300; -5e-6; 5e-6; -4.9e-6; -5.1e-6;
              Float.nan; Float.infinity; Float.neg_infinity; 1e9; -1e9;
              1e12; 3.7e300;
            ] );
      ])

let arb_fingerprint_matrix =
  QCheck.make
    ~print:(fun (n, xs) ->
      Printf.sprintf "%dx%d [%s]" n n
        (String.concat "; " (List.map (Printf.sprintf "%h") xs)))
    QCheck.Gen.(
      int_range 2 8 >>= fun n ->
      map (fun xs -> (n, xs)) (list_repeat (2 * n * n) gen_fingerprint_entry))

let prop_fingerprint_reference =
  QCheck.Test.make ~name:"fingerprint digests the Printf text" ~count:300
    arb_fingerprint_matrix (fun (n, xs) ->
      let a = Array.of_list xs in
      let u =
        Mat.init n n (fun r c ->
            let i = 2 * ((r * n) + c) in
            Cx.make a.(i) a.(i + 1))
      in
      Library.fingerprint u = reference_fingerprint u)

(* Keys of the persistent pulse store: these literals were computed
   before the fingerprint stopped going through [Printf], and must never
   change. *)
let test_library_fingerprint_pinned () =
  List.iter
    (fun (name, g, hex) ->
      Alcotest.(check string) name hex
        (Digest.to_hex (Library.fingerprint (Gate.matrix g))))
    [
      ("cx", Gate.CX, "b4e09d0faff0960446e777a19e9278c1");
      ("h", Gate.H, "ac8eb24b6b77e78f5972d4e5a9ebd873");
      ("ccx", Gate.CCX, "2c3367e879db0ca1058a15a9046ece35");
    ]

let test_library_fork_absorb () =
  let lib = Library.create () in
  lib_add lib (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999;
  let f = Library.fork lib in
  (* the fork sees existing entries but counts its own traffic *)
  Alcotest.(check bool) "fork hit" true (lib_find f (Gate.matrix Gate.X) <> None);
  Alcotest.(check bool) "fork miss" true (lib_find f (Gate.matrix Gate.Y) = None);
  lib_add f (Gate.matrix Gate.Y) ~duration:12.0 ~fidelity:0.998;
  (* parent unaffected until absorb *)
  Alcotest.(check int) "parent entries before absorb" 1
    (Library.stats lib).Library.entries;
  Library.absorb lib f;
  let s = Library.stats lib in
  Alcotest.(check int) "entries merged" 2 s.Library.entries;
  Alcotest.(check int) "hits merged" 1 s.Library.hits;
  Alcotest.(check int) "misses merged" 1 s.Library.misses;
  (* absorbing a stale fork with a duplicate entry must not double it *)
  Library.absorb lib f;
  Alcotest.(check int) "duplicate absorb is idempotent on entries" 2
    (Library.stats lib).Library.entries

(* --- esp ---------------------------------------------------------------------- *)

let test_esp_product () =
  let s =
    Schedule.schedule ~n:2 [ instr [ 0 ] 0.0 0.9 "a"; instr [ 1 ] 0.0 0.8 "b" ]
  in
  Alcotest.(check (float 1e-9)) "product of fidelities" 0.72
    (Esp.of_schedule ~t_coherence:1e9 s)

let test_esp_decoherence_penalty () =
  let short = Schedule.schedule ~n:1 [ instr [ 0 ] 10.0 1.0 "a" ] in
  let long = Schedule.schedule ~n:1 [ instr [ 0 ] 1000.0 1.0 "a" ] in
  let e_short = Esp.of_schedule ~t_coherence:10_000.0 short in
  let e_long = Esp.of_schedule ~t_coherence:10_000.0 long in
  Alcotest.(check bool) "longer pulse lower esp" true (e_long < e_short);
  Alcotest.(check (float 1e-6)) "explicit value" (exp (-.0.001)) e_short

let test_esp_fewer_pulses_better () =
  (* same total duration: one grouped pulse beats two pulses with the same
     per-pulse fidelity — the Figure 10 mechanism *)
  let grouped = Schedule.schedule ~n:2 [ instr [ 0; 1 ] 50.0 0.999 "blk" ] in
  let split =
    Schedule.schedule ~n:2
      [ instr [ 0; 1 ] 25.0 0.999 "b1"; instr [ 0; 1 ] 25.0 0.999 "b2" ]
  in
  Alcotest.(check bool) "grouping wins" true
    (Esp.of_schedule ~t_coherence:1e5 grouped
    > Esp.of_schedule ~t_coherence:1e5 split)

let () =
  Alcotest.run "qoc"
    [
      ( "hardware",
        [
          Alcotest.test_case "drift" `Quick test_hardware_drift;
          Alcotest.test_case "controls" `Quick test_hardware_controls;
          Alcotest.test_case "1q no drift" `Quick test_hardware_single_qubit_no_drift;
          Alcotest.test_case "reference times" `Quick test_reference_times;
        ] );
      ( "grape",
        [
          Alcotest.test_case "identity 1q" `Quick test_grape_identity_1q;
          Alcotest.test_case "x gate" `Quick test_grape_x_gate;
          Alcotest.test_case "hadamard" `Quick test_grape_hadamard;
          Alcotest.test_case "cnot" `Slow test_grape_cnot;
          Alcotest.test_case "amplitude limit" `Quick
            test_grape_respects_amplitude_limit;
          Alcotest.test_case "propagator unitary" `Slow test_grape_propagate_unitary;
          Alcotest.test_case "too short fails" `Quick test_grape_too_short_fails;
          Alcotest.test_case "batch matches solo bit-for-bit" `Quick
            test_grape_batch_matches_solo;
          Alcotest.test_case "checkpoint pool invariance" `Quick
            test_grape_checkpoint_pool_invariance;
          Alcotest.test_case "pinned bits of a mixed batch" `Quick
            test_grape_pinned_bits;
          Alcotest.test_case "loop allocates one sample per iteration" `Slow
            test_grape_iteration_allocation;
          Alcotest.test_case "patience truncates an infeasible solve" `Quick
            test_grape_patience_truncates;
        ] );
      ( "patience",
        List.map QCheck_alcotest.to_alcotest
          [ prop_patience_rule; prop_ulp_stable ] );
      ( "latency",
        [
          Alcotest.test_case "x speed limit" `Quick test_latency_x_speed_limit;
          Alcotest.test_case "small rotation fast" `Quick test_latency_rz_is_fast;
          Alcotest.test_case "pinned attempt sequences" `Quick
            test_latency_pinned_searches;
          Alcotest.test_case "estimator calibration" `Quick test_estimator_calibration;
          Alcotest.test_case "virtual z free" `Quick test_estimator_virtual_z_free;
          Alcotest.test_case "guess slots" `Quick test_guess_slots_positive;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "serial" `Quick test_schedule_serial;
          Alcotest.test_case "parallel" `Quick test_schedule_parallel;
          Alcotest.test_case "blocking" `Quick test_schedule_blocking;
          Alcotest.test_case "utilization" `Quick test_schedule_utilization;
        ] );
      ( "library",
        [
          Alcotest.test_case "miss then hit" `Quick test_library_miss_then_hit;
          Alcotest.test_case "global phase matching" `Quick
            test_library_global_phase_matching;
          Alcotest.test_case "phase sensitive mode" `Quick test_library_phase_sensitive;
          Alcotest.test_case "distinguishes" `Quick test_library_distinguishes;
          Alcotest.test_case "fingerprint quantization" `Quick
            test_library_fingerprint_quantization;
          Alcotest.test_case "pinned fingerprints" `Quick
            test_library_fingerprint_pinned;
          Alcotest.test_case "fork/absorb" `Quick test_library_fork_absorb;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_fingerprint_reference ] );
      ( "esp",
        [
          Alcotest.test_case "product" `Quick test_esp_product;
          Alcotest.test_case "decoherence" `Quick test_esp_decoherence_penalty;
          Alcotest.test_case "fewer pulses better" `Quick test_esp_fewer_pulses_better;
        ] );
    ]
