(* GRAPE: gradient ascent pulse engineering (Khaneja et al. 2005).

   Piecewise-constant controls u[j][k] over [slots] intervals of length dt.
   The slot propagator is U_k = exp(-i dt (H0 + sum_j u_jk H_j)); the
   figure of merit is the global-phase-invariant gate fidelity
     F = |tr(U_target^dag U_N ... U_1)| / d.
   Gradients use the standard first-order GRAPE approximation
   dU_k/du_jk ~ -i dt H_j U_k, evaluated with forward/backward propagator
   caching, and are ascended with Adam under amplitude clipping.

   One solver core runs every job.  The slot chain is split into
   [segments] fixed segments, a pure function of (dim, slots) — never of
   worker count — and each iteration runs four segment sweeps (slot
   propagators and local prefix products, rebasing onto the true
   segment boundaries, local suffix products, the gradient sweep) with
   only the boundary recombination in between sequential.  A
   one-segment solve (every solve below dim 8, and below 256 slots at
   dim 8) calls its sweeps directly; a larger one fans them out over
   the domain pool.  The segmentation pins the association of every
   floating-point reduction, and all solve state (RNG, Adam moments,
   stop logic) is private to the solve, so a result depends only on
   the solve's inputs: execution choices (the pool, EPOC_JOBS, which
   domain runs the solve) can change only wall-clock, never values.

   The inner loop is allocation-free: all matrix scratch lives in a
   [workspace] reused across iterations, attempts and whole solve
   sequences (the duration search passes one workspace through every
   attempt), and convergence samples are recorded into preallocated
   arrays, listified once per solve.

   An attempt stops early when its recent progress cannot reach the
   fidelity target ([patience_stop]); a stop only truncates the
   attempt, so the iterations it does run are exactly those of the
   uncut attempt. *)

open Epoc_linalg
module Pool = Epoc_parallel.Pool
module Metrics = Epoc_obs.Metrics

(* Shared log source for the QOC layer (GRAPE + the duration search). *)
let log_src = Logs.Src.create "epoc.qoc" ~doc:"EPOC quantum optimal control"

module Log = (val Logs.src_log log_src : Logs.LOG)

type pulse = {
  dt : float;
  labels : string array; (* control labels, parallel to amplitudes *)
  amplitudes : float array array; (* [control][slot], rad/ns *)
}

let duration p =
  match p.amplitudes with
  | [||] -> 0.0
  | a -> float_of_int (Array.length a.(0)) *. p.dt

let slot_count p = match p.amplitudes with [||] -> 0 | a -> Array.length a.(0)

(* CSV export of the pulse envelopes: one row per slot, one column per
   control channel.  Loadable by any waveform/AWG tooling. *)
let pulse_to_csv (p : pulse) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "t_ns";
  Array.iter (fun l -> Buffer.add_string b ("," ^ l)) p.labels;
  Buffer.add_char b '\n';
  for k = 0 to slot_count p - 1 do
    Buffer.add_string b (Printf.sprintf "%.3f" (float_of_int k *. p.dt));
    Array.iter
      (fun amps -> Buffer.add_string b (Printf.sprintf ",%.6f" amps.(k)))
      p.amplitudes;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

type options = {
  iterations : int;
  learning_rate : float;
  fidelity_target : float;
  patience : int;
      (* window of the progress-aware stop; see [patience_stop] *)
  init : float array array option;
      (* warm-start amplitudes [control][slot] from a cached near-neighbor
         pulse; resampled to the requested slot count and clipped to the
         drive limit.  [None] = random cold start. *)
}

let default_options =
  {
    iterations = 300;
    learning_rate = 0.08;
    fidelity_target = 0.999;
    patience = 50;
    init = None;
  }

(* Why the ascent loop ended. *)
type stop_reason =
  | Target_hit (* fidelity target reached *)
  | Patience (* recent gain too small to reach the target *)
  | Budget (* iteration budget exhausted *)

let stop_reason_name = function
  | Target_hit -> "target"
  | Patience -> "patience"
  | Budget -> "budget"

(* The patience stop after iteration [t] (1-based), [best.(i)] being the
   best-so-far fidelity after iteration [i + 1]: stop when twice the
   mean gain of the last [patience] iterations, carried over the
   iterations left, still ends below the target,
     best_t + 2 (best_t - best_(t-patience)) / patience (iterations - t)
       < target.
   A plateau (zero gain) always stops.  Rounding the fidelities by a
   few ulps moves the projection by a few ulps, so it flips the
   decision only when the projection sits that close to the target.
   It never fires before a full
   window or on the last iteration (that attempt ends by budget), so
   [patience >= iterations] never stops a run.  Floats arrive boxed
   from the caller's records and the result is a bool: a call
   allocates nothing. *)
let patience_stop ~target ~patience ~iterations (best : float array) t =
  t > patience && t < iterations
  &&
  let now = best.(t - 1) in
  let gain = now -. best.(t - 1 - patience) in
  now +. (2.0 *. gain /. float_of_int patience *. float_of_int (iterations - t))
  < target

(* One point of the convergence series, recorded every iteration. *)
type sample = {
  it : int; (* 1-based iteration *)
  s_fidelity : float;
  s_grad_norm : float; (* L2 norm over all (control, slot) gradients *)
  s_step : float; (* mean |amplitude update| this iteration, rad/ns *)
}

type result = {
  pulse : pulse;
  fidelity : float;
  achieved : Mat.t; (* realized total propagator *)
  iterations : int;
  stop : stop_reason;
  warm_start : bool; (* ascent was seeded from cached amplitudes *)
  series : sample list; (* convergence telemetry, oldest first *)
}

(* Assemble H = H0 + sum_j u_j H_j into [h] (preallocated).  Each
   amplitude is read from its slot in [amps.(j)] by [Kernels.axpy_re_at]
   — the loop [Mat.add_scaled_re_into] runs, without boxing the scalar —
   so a call allocates nothing. *)
let assemble_hamiltonian ~h0 ~(ctrls : Hardware.control array) amps k ~h =
  Mat.copy_into ~src:h0 ~dst:h;
  let len = Mat.rows h * Mat.cols h in
  for j = 0 to Array.length ctrls - 1 do
    Kernels.axpy_re_at ~len amps.(j) k (Mat.data ctrls.(j).Hardware.matrix) 0
      (Mat.data h) 0
  done

(* Total propagator for a pulse under the hardware model. *)
let propagate hw (p : pulse) =
  let h0 = Hardware.drift hw in
  let ctrls = Array.of_list (Hardware.controls hw) in
  let dim = Mat.rows h0 in
  let es = Expm.scratch dim in
  let h = Mat.create dim dim in
  let step = Mat.create dim dim in
  let u = Mat.identity dim in
  let tmp = Mat.create dim dim in
  for k = 0 to slot_count p - 1 do
    assemble_hamiltonian ~h0 ~ctrls p.amplitudes k ~h;
    Expm.expi_hermitian_into es h p.dt ~dst:step;
    Mat.mul_into step u ~dst:tmp;
    Mat.copy_into ~src:tmp ~dst:u
  done;
  u

let fidelity_of target u = Mat.hs_fidelity target u

(* --- solver state ---------------------------------------------------------- *)

(* All mutable state of one solve.  Matrix-shaped scratch lives in the
   workspace; everything here belongs to the solve, and only its own
   segment sweeps touch it (each its own slots), which is what keeps
   the segment fan-out value-transparent. *)
type jstate = {
  j_hw : Hardware.t;
  j_target : Mat.t;
  j_target_dag : Mat.t;
  j_slots : int;
  j_opts : options;
  j_budget : Epoc_budget.t;
  j_site : string;
  j_nc : int;
  j_ctrls : Hardware.control array;
  j_h0 : Mat.t;
  j_limit : float;
  j_dt : float;
  j_dim_f : float;
  j_warm : bool;
  j_amp : float array array; (* current amplitudes [control][slot] *)
  j_best_amp : float array array; (* preallocated best-so-far copy *)
  j_madam : float array array;
  j_vadam : float array array;
  j_nan : bool; (* injected-fault decisions, resolved up front *)
  j_deadline : bool;
  mutable j_iters : int;
  mutable j_stop : stop_reason;
  mutable j_running : bool;
  mutable j_err : Epoc_error.t option;
  (* Hot per-iteration floats: 0 = current fidelity, 1/2 = gradient
     phase (re, im), 3 = best fidelity so far.  A float array rather
     than mutable float fields because writing a float into a
     mixed-field record allocates a fresh box per store (no flambda);
     float-array stores are unboxed. *)
  j_hot : float array;
  j_acc : float array; (* (grad_sq, step_abs), summed over segments *)
  j_best : float array; (* best-so-far fidelity after each iteration *)
  (* convergence series, recorded into flat arrays (at most one sample
     per iteration) and listified once per solve *)
  j_s_it : int array;
  j_s_fid : float array;
  j_s_grad : float array;
  j_s_step : float array;
  mutable j_ns : int;
}

let make_state ~options ~rng ~budget ~fault ~site ~attempt hw ~target
    ~slots =
  let dim = 1 lsl hw.Hardware.n in
  let rng = match rng with Some r -> r | None -> Random.State.make [| 23 |] in
  let h0 = Hardware.drift hw in
  let ctrls = Array.of_list (Hardware.controls hw) in
  let nc = Array.length ctrls in
  let limit = hw.Hardware.drive_limit in
  (* A cached near-neighbor pulse seeds the ascent when its control count
     matches this hardware; its slot axis is nearest-neighbor-resampled to
     the requested count (duration search probes different slot counts
     than the cached pulse was solved at) and clipped to the drive limit.
     Otherwise start from small random pulses to break symmetry. *)
  let warm_init =
    match options.init with
    | Some rows
      when Array.length rows = nc
           && Array.for_all (fun r -> Array.length r > 0) rows
           && nc > 0 ->
        Some
          (Array.map
             (fun row ->
               let len = Array.length row in
               Array.init slots (fun k ->
                   let v = row.(k * len / slots) in
                   Float.max (-.limit) (Float.min limit v)))
             rows)
    | _ -> None
  in
  let u_amp =
    match warm_init with
    | Some amps -> amps
    | None ->
        Array.init nc (fun _ ->
            Array.init slots (fun _ ->
                0.2 *. limit *. (Random.State.float rng 2.0 -. 1.0)))
  in
  (* Injected faults are resolved once, before the loop: the decision is
     a pure function of (seed, kind, site, attempt), so the fault pattern
     is identical for any domain count. *)
  {
    j_hw = hw;
    j_target = target;
    j_target_dag = Mat.adjoint target;
    j_slots = slots;
    j_opts = options;
    j_budget = budget;
    j_site = site;
    j_nc = nc;
    j_ctrls = ctrls;
    j_h0 = h0;
    j_limit = limit;
    j_dt = hw.Hardware.dt;
    j_dim_f = float_of_int dim;
    j_warm = warm_init <> None;
    j_amp = u_amp;
    j_best_amp = Array.map Array.copy u_amp;
    j_madam = Array.init nc (fun _ -> Array.make slots 0.0);
    j_vadam = Array.init nc (fun _ -> Array.make slots 0.0);
    j_nan = Epoc_fault.fires_opt fault ~kind:"grape_nan" ~site ~attempt;
    j_deadline = Epoc_fault.fires_opt fault ~kind:"deadline" ~site ~attempt;
    j_iters = 0;
    j_stop = Budget;
    j_running = true;
    j_err = None;
    j_hot = [| 0.0; 0.0; 0.0; 0.0 |];
    j_acc = [| 0.0; 0.0 |];
    j_best = Array.make (Stdlib.max 1 options.iterations) 0.0;
    j_s_it = Array.make (Stdlib.max 1 options.iterations) 0;
    j_s_fid = Array.make (Stdlib.max 1 options.iterations) 0.0;
    j_s_grad = Array.make (Stdlib.max 1 options.iterations) 0.0;
    j_s_step = Array.make (Stdlib.max 1 options.iterations) 0.0;
    j_ns = 0;
  }

let beta1 = 0.9
let beta2 = 0.999
let adam_eps = 1e-8

(* Convergence samples, at most one per iteration.  Float
   inputs arrive through [j_hot] / [j_acc] rather than float
   parameters: without flambda a non-inlined call boxes every float
   argument, and these sit in the per-iteration path. *)
let record_stop st it =
  let i = st.j_ns in
  st.j_s_it.(i) <- it;
  st.j_s_fid.(i) <- st.j_hot.(0);
  st.j_s_grad.(i) <- 0.0;
  st.j_s_step.(i) <- 0.0;
  st.j_ns <- i + 1

let record_grad st it =
  let i = st.j_ns in
  st.j_s_it.(i) <- it;
  st.j_s_fid.(i) <- st.j_hot.(0);
  st.j_s_grad.(i) <- Stdlib.sqrt st.j_acc.(0);
  st.j_s_step.(i) <- st.j_acc.(1) /. float_of_int (st.j_nc * st.j_slots);
  st.j_ns <- i + 1

let fail st e =
  st.j_err <- Some e;
  st.j_running <- false

(* Budget / injected-fault checks at the top of iteration [it]; false
   means the job just errored out. *)
let check_job st it =
  st.j_iters <- it;
  match
    Epoc_budget.check ~site:st.j_site st.j_budget;
    if st.j_deadline then
      Epoc_error.raise_
        (Epoc_error.Deadline_exceeded
           { site = st.j_site; elapsed_s = Epoc_budget.elapsed_s st.j_budget });
    if st.j_nan then
      Epoc_error.raise_
        (Epoc_error.Solver_diverged
           { site = st.j_site; detail = "injected grape_nan" })
  with
  | () -> true
  | exception Epoc_error.Error e ->
      fail st e;
      false

(* Consume the fidelity overlap z = tr(U_target^dag U) of iteration
   [it]: track the best pulse, decide stopping (target, then
   [patience_stop]), stage the gradient phase factor.  Returns
   true when the backward sweep should run this iteration.  The phase
   expressions replicate [Cx.div (Cx.conj z) (Cx.of_float n)] term by
   term so solves match the historical solver bitwise. *)
let eval_fidelity st it (tr : float array) ti =
  let zre = tr.(ti) and zim = tr.(ti + 1) in
  (* |z| inline, replicating [Stdlib.Complex.norm]'s overflow-safe
     scaled form on plain floats; a helper call would box both operands *)
  let az =
    let r = Float.abs zre and i = Float.abs zim in
    if r = 0.0 then i
    else if i = 0.0 then r
    else if r >= i then
      let q = i /. r in
      r *. Stdlib.sqrt (1.0 +. (q *. q))
    else
      let q = r /. i in
      i *. Stdlib.sqrt (1.0 +. (q *. q))
  in
  let fnow = az /. st.j_dim_f in
  if not (Float.is_finite fnow) then begin
    fail st
      (Epoc_error.Solver_diverged
         {
           site = st.j_site;
           detail = Printf.sprintf "non-finite fidelity at iteration %d" it;
         });
    false
  end
  else begin
    st.j_hot.(0) <- fnow;
    if fnow > st.j_hot.(3) then begin
      st.j_hot.(3) <- fnow;
      for j = 0 to st.j_nc - 1 do
        Array.blit st.j_amp.(j) 0 st.j_best_amp.(j) 0 st.j_slots
      done
    end;
    st.j_best.(it - 1) <- st.j_hot.(3);
    if fnow >= st.j_opts.fidelity_target then begin
      st.j_stop <- Target_hit;
      record_stop st it;
      st.j_running <- false;
      false
    end
    else if
      patience_stop ~target:st.j_opts.fidelity_target
        ~patience:st.j_opts.patience ~iterations:st.j_opts.iterations
        st.j_best it
    then begin
      st.j_stop <- Patience;
      record_stop st it;
      st.j_running <- false;
      false
    end
    else begin
      (* phase = conj z / max(|z|, eps), written as [Complex.div] by a
         real denominator computes it *)
      let n = Float.max az 1e-12 in
      let r = 0.0 /. n in
      let d = n +. (r *. 0.0) in
      st.j_hot.(1) <- (zre +. (r *. -.zim)) /. d;
      st.j_hot.(2) <- (-.zim -. (r *. zre)) /. d;
      true
    end
  end

(* One Adam ascent step for control [j], slot [k], from the gradient
   inner product tr(a H_j) read at [tr.(ti)], [tr.(ti + 1)].  [pw]
   holds (beta1^it, beta2^it), hoisted per iteration (they depend only
   on [it]).  All floats cross this call through arrays — this runs
   once per (control, slot, iteration) and float arguments of a
   non-inlined call are boxed without flambda.  Accumulates
   (grad^2, |step|) into [acc], the segment's own partials, never
   shared between domains. *)
let adam_update st (pw : float array) j k (tr : float array) ti
    (acc : float array) =
  let tr_re = tr.(ti) and tr_im = tr.(ti + 1) in
  let dt = st.j_dt in
  (* dz = -i dt tr;  dF = Re(phase * dz) / d *)
  let dz_re = (0.0 *. tr_re) -. (-.dt *. tr_im) in
  let dz_im = (0.0 *. tr_im) +. (-.dt *. tr_re) in
  let grad =
    ((st.j_hot.(1) *. dz_re) -. (st.j_hot.(2) *. dz_im)) /. st.j_dim_f
  in
  acc.(0) <- acc.(0) +. (grad *. grad);
  let mj = st.j_madam.(j) and vj = st.j_vadam.(j) in
  mj.(k) <- (beta1 *. mj.(k)) +. ((1.0 -. beta1) *. grad);
  vj.(k) <- (beta2 *. vj.(k)) +. ((1.0 -. beta2) *. grad *. grad);
  let mh = mj.(k) /. (1.0 -. pw.(0)) in
  let vh = vj.(k) /. (1.0 -. pw.(1)) in
  let next =
    st.j_amp.(j).(k)
    +. (st.j_opts.learning_rate *. st.j_limit *. mh
       /. (Stdlib.sqrt vh +. adam_eps))
  in
  (* clip in two bindings: nesting the [Float.min] call as an argument
     of [Float.max] defeats their [@inline] and boxes the intermediate *)
  let lo = Float.min st.j_limit next in
  let clipped = Float.max (-.st.j_limit) lo in
  acc.(1) <- acc.(1) +. Float.abs (clipped -. st.j_amp.(j).(k));
  st.j_amp.(j).(k) <- clipped

let finalize st =
  match st.j_err with
  | Some e -> Error e
  | None ->
      let labels = Array.map (fun c -> c.Hardware.label) st.j_ctrls in
      let pulse =
        {
          dt = st.j_dt;
          labels;
          amplitudes = Array.map Array.copy st.j_best_amp;
        }
      in
      let achieved = propagate st.j_hw pulse in
      let fidelity = fidelity_of st.j_target achieved in
      let series = ref [] in
      for i = st.j_ns - 1 downto 0 do
        series :=
          {
            it = st.j_s_it.(i);
            s_fidelity = st.j_s_fid.(i);
            s_grad_norm = st.j_s_grad.(i);
            s_step = st.j_s_step.(i);
          }
          :: !series
      done;
      Log.debug (fun m ->
          m "grape: %d qubits, %d slots, %d iters, F=%.6f, stop=%s%s"
            st.j_hw.Hardware.n st.j_slots st.j_iters fidelity
            (stop_reason_name st.j_stop)
            (if st.j_warm then " (warm start)" else ""));
      Ok
        {
          pulse;
          fidelity;
          achieved;
          iterations = st.j_iters;
          stop = st.j_stop;
          warm_start = st.j_warm;
          series = !series;
        }

(* --- workspace ---------------------------------------------------------- *)

(* Number of checkpoint segments for a solve: a pure function of
   (dim, slots) — never of pool size or EPOC_JOBS — because it pins the
   association of every floating-point reduction in the solver.  Only
   solves with enough arithmetic per slot to amortize the extra
   per-slot products and the per-iteration fork/join split; the rest
   run as one segment.  Non-decreasing in [slots]. *)
let segments ~dim ~slots =
  if dim >= 8 && dim * dim * dim * slots >= 131072 then
    Stdlib.max 2 (Stdlib.min 8 (slots / 32))
  else 1

(* Per-segment buffers; each is owned by exactly one segment worker
   during the parallel phases. *)
type seg_bufs = {
  sg_h : Mat.t;
  sg_es : Expm.scratch;
  sg_m : Mat.t;
  sg_a : Mat.t;
  mutable sg_b : Mat.t;
  mutable sg_b2 : Mat.t;
  mutable sg_q : Mat.t; (* local suffix product of slot propagators *)
  mutable sg_q2 : Mat.t;
  sg_tmp : Mat.t;
  sg_tr : float array;
  sg_acc : float array; (* per-segment (grad_sq, step_abs) partials *)
}

let make_seg dim =
  {
    sg_h = Mat.create dim dim;
    sg_es = Expm.scratch dim;
    sg_m = Mat.create dim dim;
    sg_a = Mat.create dim dim;
    sg_b = Mat.create dim dim;
    sg_b2 = Mat.create dim dim;
    sg_q = Mat.create dim dim;
    sg_q2 = Mat.create dim dim;
    sg_tmp = Mat.create dim dim;
    sg_tr = [| 0.0; 0.0 |];
    sg_acc = [| 0.0; 0.0 |];
  }

(* Buffers for solves at [ck_dim] of up to [ck_slots] slots (and so up
   to [segments ~dim ~slots:ck_slots] segments). *)
type ck_bufs = {
  ck_dim : int;
  ck_slots : int;
  ck_props : Mat.t array; (* per-slot propagators *)
  ck_fwd : Mat.t array; (* forward products (local, then rebased) *)
  ck_cps : Mat.t array; (* true forward boundary after segment s *)
  ck_ent : Mat.t array; (* backward entry E_s into segment s *)
  ck_segs : seg_bufs array;
  ck_tr : float array;
  ck_pw : float array; (* (beta1^it, beta2^it), rewritten per iteration *)
}

let make_ck ~dim ~slots =
  let nseg = segments ~dim ~slots in
  {
    ck_dim = dim;
    ck_slots = slots;
    ck_props = Array.init slots (fun _ -> Mat.create dim dim);
    ck_fwd = Array.init (slots + 1) (fun _ -> Mat.create dim dim);
    ck_cps = Array.init nseg (fun _ -> Mat.create dim dim);
    ck_ent = Array.init nseg (fun _ -> Mat.create dim dim);
    ck_segs = Array.init nseg (fun _ -> make_seg dim);
    ck_tr = [| 0.0; 0.0 |];
    ck_pw = [| 0.0; 0.0 |];
  }

type workspace = {
  mutable ws_bufs : ck_bufs option;
  ws_metrics : Metrics.t option;
      (* engine-scoped sink for wall-clock gauges (iters/s); never a
         per-run registry — throughput is non-deterministic *)
}

let workspace ?metrics () = { ws_bufs = None; ws_metrics = metrics }

(* The workspace's buffers, holding solves at [dim] of up to [slots]
   slots.  Capacities only grow, so a duration search reuses one
   allocation across all its attempts. *)
let ensure_ck ws ~dim ~slots =
  match ws.ws_bufs with
  | Some c when c.ck_dim = dim && c.ck_slots >= slots -> c
  | prev ->
      let slots =
        match prev with
        | Some c when c.ck_dim = dim -> Stdlib.max slots c.ck_slots
        | _ -> slots
      in
      let c = make_ck ~dim ~slots in
      ws.ws_bufs <- Some c;
      c

(* --- solver core -------------------------------------------------------- *)

(* One solve with the slot chain split into [segments] fixed segments.
   Per iteration:

   forward   per segment: slot propagators and LOCAL prefix products
             (segment s > 0 chains from identity);
   combine   sequentially: true boundary products cps.(s) from the local
             segment totals;
   rebase    per segment s > 0: local prefixes times the incoming
             boundary = true forward products;
   backward  per segment s > 0: local suffix products Q_s; then
             sequentially the entry matrices E_(s-1) = E_s Q_s; then per
             segment the gradient sweep over its own slots (disjoint
             (j, k) columns, per-segment accumulators).

   Every product association above is fixed by the segment boundaries,
   which depend only on (dim, slots), so results are identical for any
   pool size — including [Pool.sequential].

   The four segment sweeps are closures over per-solve state (and
   [ck_pw], rewritten in place per iteration), built once per solve.  A
   one-segment solve calls them directly, so it records no pool
   traffic; a larger one fans them out with [Pool.parallel_for], which
   runs a plain loop when the pool grants no extra domain (as inside a
   fan-out of whole solves that holds every domain).  Either way an
   iteration allocates nothing on one domain beyond its convergence
   sample. *)
let run_job pool (c : ck_bufs) (st : jstate) =
  let dim = c.ck_dim in
  let slots = st.j_slots in
  let nseg = segments ~dim ~slots in
  let lo s = s * slots / nseg in
  let iters = st.j_opts.iterations in
  let sweep ~lo f =
    if nseg > 1 then Pool.parallel_for pool ~lo ~hi:nseg f
    else if lo = 0 then f 0
  in
  let forward s =
    let sb = c.ck_segs.(s) in
    let first = lo s and hi = lo (s + 1) in
    for k = first to hi - 1 do
      assemble_hamiltonian ~h0:st.j_h0 ~ctrls:st.j_ctrls st.j_amp k ~h:sb.sg_h;
      Expm.expi_hermitian_into sb.sg_es sb.sg_h st.j_dt ~dst:c.ck_props.(k);
      if k = first && s > 0 then
        Mat.copy_into ~src:c.ck_props.(k) ~dst:c.ck_fwd.(k + 1)
      else Mat.mul_into c.ck_props.(k) c.ck_fwd.(k) ~dst:c.ck_fwd.(k + 1)
    done
  in
  let rebase s =
    let sb = c.ck_segs.(s) in
    let first = lo s and hi = lo (s + 1) in
    let bprev = if s = 1 then c.ck_fwd.(lo 1) else c.ck_cps.(s - 1) in
    for k = first + 1 to hi - 1 do
      Mat.mul_into c.ck_fwd.(k) bprev ~dst:sb.sg_tmp;
      Mat.copy_into ~src:sb.sg_tmp ~dst:c.ck_fwd.(k)
    done;
    if s > 1 then Mat.copy_into ~src:bprev ~dst:c.ck_fwd.(first);
    if s = nseg - 1 then Mat.copy_into ~src:c.ck_cps.(s) ~dst:c.ck_fwd.(slots)
  in
  let suffix s =
    let sb = c.ck_segs.(s) in
    let first = lo s and hi = lo (s + 1) in
    Mat.copy_into ~src:c.ck_props.(hi - 1) ~dst:sb.sg_q;
    for k = hi - 2 downto first do
      Mat.mul_into sb.sg_q c.ck_props.(k) ~dst:sb.sg_q2;
      let tmp = sb.sg_q in
      sb.sg_q <- sb.sg_q2;
      sb.sg_q2 <- tmp
    done
  in
  let gradient s =
    let sb = c.ck_segs.(s) in
    let first = lo s and hi = lo (s + 1) in
    sb.sg_acc.(0) <- 0.0;
    sb.sg_acc.(1) <- 0.0;
    Mat.copy_into ~src:c.ck_ent.(s) ~dst:sb.sg_b;
    for k = hi - 1 downto first do
      Mat.mul_into c.ck_fwd.(k) sb.sg_b ~dst:sb.sg_m;
      Mat.mul_into c.ck_props.(k) sb.sg_m ~dst:sb.sg_a;
      for j = 0 to st.j_nc - 1 do
        Kernels.trace_mul ~d:dim (Mat.data sb.sg_a) 0
          (Mat.data st.j_ctrls.(j).Hardware.matrix)
          0 sb.sg_tr 0;
        adam_update st c.ck_pw j k sb.sg_tr 0 sb.sg_acc
      done;
      Mat.mul_into sb.sg_b c.ck_props.(k) ~dst:sb.sg_b2;
      let tmp = sb.sg_b in
      sb.sg_b <- sb.sg_b2;
      sb.sg_b2 <- tmp
    done
  in
  Mat.set_identity c.ck_fwd.(0);
  let it = ref 1 in
  while st.j_running && !it <= iters do
    let t = !it in
    if check_job st t then begin
      sweep ~lo:0 forward;
      for s = 1 to nseg - 1 do
        let bprev = if s = 1 then c.ck_fwd.(lo 1) else c.ck_cps.(s - 1) in
        Mat.mul_into c.ck_fwd.(lo (s + 1)) bprev ~dst:c.ck_cps.(s)
      done;
      sweep ~lo:1 rebase;
      Kernels.trace_mul ~d:dim (Mat.data st.j_target_dag) 0
        (Mat.data c.ck_fwd.(slots))
        0 c.ck_tr 0;
      if eval_fidelity st t c.ck_tr 0 then begin
        c.ck_pw.(0) <- Float.pow beta1 (float_of_int t);
        c.ck_pw.(1) <- Float.pow beta2 (float_of_int t);
        sweep ~lo:1 suffix;
        Mat.copy_into ~src:st.j_target_dag ~dst:c.ck_ent.(nseg - 1);
        for s = nseg - 1 downto 1 do
          Mat.mul_into c.ck_ent.(s) c.ck_segs.(s).sg_q ~dst:c.ck_ent.(s - 1)
        done;
        sweep ~lo:0 gradient;
        st.j_acc.(0) <- 0.0;
        st.j_acc.(1) <- 0.0;
        for s = nseg - 1 downto 0 do
          st.j_acc.(0) <- st.j_acc.(0) +. c.ck_segs.(s).sg_acc.(0);
          st.j_acc.(1) <- st.j_acc.(1) +. c.ck_segs.(s).sg_acc.(1)
        done;
        record_grad st t
      end
    end;
    incr it
  done

(* --- entry point ---------------------------------------------------------- *)

let optimize_r ?(options = default_options) ?rng
    ?(budget = Epoc_budget.unlimited) ?fault ?(site = "grape") ?(attempt = 0)
    ?(pool = Pool.sequential) ?workspace:ws_opt hw ~target ~slots =
  let dim = 1 lsl hw.Hardware.n in
  if Mat.rows target <> dim then
    invalid_arg "Grape.optimize_r: dimension mismatch";
  if slots < 1 then invalid_arg "Grape.optimize_r: need at least one slot";
  let t0 = Monotonic_clock.now () in
  let ws = match ws_opt with Some w -> w | None -> workspace () in
  let st =
    make_state ~options ~rng ~budget ~fault ~site ~attempt hw ~target ~slots
  in
  run_job pool (ensure_ck ws ~dim ~slots) st;
  (* throughput gauge: the workspace's engine-scoped registry only —
     wall-clock is non-deterministic and must stay out of the per-run
     registries the determinism tests compare *)
  let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  (match ws.ws_metrics with
  | Some m when wall > 0.0 && st.j_iters > 0 ->
      Metrics.set m "grape.iters_per_s" (float_of_int st.j_iters /. wall)
  | _ -> ());
  finalize st
