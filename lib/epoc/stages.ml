(* Concrete passes of the EPOC pipeline (paper Figure 3), over the
   [Ir.t] compilation IR:

     reorder    commutation-aware gate reordering
     partition  greedy partition                  (Epoc_partition.Partition)
     synthesis  per-block VUG synthesis           (Epoc_synthesis.Synthesis)
     reorder-vug  reordering of the VUG circuit
     regroup    regroup sweep (or trivial per-op groups)
     pulses     pulse generation per group        (library + GRAPE/estimate)
     schedule   ASAP schedule per grouping, keep the lowest latency

   Each pass preserves the determinism contract stated in
   lib/epoc/pipeline.ml: every parallel fan-out is pure or works on
   forked state merged in a fixed order, and preserves item order, so
   results are bit-identical for any domain count. *)

open Epoc_linalg
open Epoc_circuit
open Epoc_partition
open Epoc_synthesis
open Epoc_qoc
open Epoc_pulse
open Epoc_parallel
module Metrics = Epoc_obs.Metrics
module Store = Epoc_cache.Store
module Synth_store = Epoc_cache.Synth_store

let log_src = Logs.Src.create "epoc.pipeline" ~doc:"EPOC pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Calibrated per-gate pulse table (fidelities are typical transmon
   values; durations follow the hardware model's reference times).
   Shared by the gate-based baseline flow and by the graceful-
   degradation fallback below. *)
let gate_pulse (hw : Hardware.t) (g : Gate.t) =
  let t1 = Hardware.single_qubit_gate_time hw in
  let t2 = Hardware.entangling_gate_time hw in
  match g with
  | g when Gate.is_virtual g -> (0.0, 1.0) (* virtual Z: frame update *)
  | Gate.SX | Gate.SXdg -> (t1 /. 2.0, 0.9997)
  | g when Gate.arity g = 1 -> (t1, 0.9995)
  | Gate.CX | Gate.CZ -> (t2, 0.994)
  | g ->
      (* multi-qubit natives are not calibrated: count their CX content *)
      (t2 *. float_of_int (2 * (Gate.arity g - 1)), 0.99)

(* One calibrated pulse per gate of a lowered circuit, in program order;
   virtual gates are dropped.  The gate-based flow's instructions. *)
let gate_instructions (hw : Hardware.t) (lowered : Circuit.t) =
  List.filter_map
    (fun (op : Circuit.op) ->
      if Gate.is_virtual op.Circuit.gate then None
      else
        let duration, fidelity = gate_pulse hw op.Circuit.gate in
        Some
          {
            Schedule.qubits = op.Circuit.qubits;
            duration;
            fidelity;
            label = Gate.name op.Circuit.gate;
            pulse = None;
          })
    (Circuit.ops lowered)

(* Per-gate pulse playback for one block: the graceful-degradation
   target when a block's GRAPE retries are exhausted.  The block's
   local circuit is lowered to the calibrated basis and played as the
   gate-based flow's instructions: the duration is their block-local
   ASAP schedule's latency and the fidelity their product — the same
   pricing the gate-based baseline gives this block. *)
let gate_fallback (hw : Hardware.t) (local : Circuit.t) =
  let lowered = Lower.to_zx_basis local in
  let instructions = gate_instructions hw lowered in
  ( Schedule.latency
      (Schedule.schedule ~n:(Circuit.n_qubits lowered) instructions),
    List.fold_left
      (fun f (i : Schedule.instruction) -> f *. i.Schedule.fidelity)
      1.0 instructions )

(* Solver telemetry of one GRAPE duration search, recorded into the
   run's metrics registry.  Every recording is a counter increment or a
   histogram observation — commutative — so concurrent workers produce
   the same registry for any domain count. *)
let record_search metrics (s : Latency.search_result) =
  Metrics.incr metrics "grape.searches";
  Metrics.incr ~by:s.Latency.grape_runs metrics "grape.runs";
  List.iter
    (fun (a : Latency.attempt) ->
      Metrics.observe metrics "grape.iterations"
        (float_of_int a.Latency.att_iterations);
      Metrics.incr metrics
        ("grape.stop." ^ Grape.stop_reason_name a.Latency.att_stop))
    s.Latency.attempts;
  Metrics.observe metrics "grape.final_infidelity"
    (Float.max 0.0 (1.0 -. s.Latency.fidelity))

(* Pulse duration + fidelity + control amplitudes of one job in Grape
   mode on its block model, without touching the library: the pure
   half of pulse generation.  Every attempt is one duration search
   ({!Latency.find_min_duration_r}) on a workspace the job owns, so its
   searches reuse one allocation.

   This is also where the resilience policy lives.  A recoverable solver
   failure ([Solver_diverged], [Deadline_exceeded]) is retried up to
   [config.max_retries] times, each retry with a jittered warm start and
   a widened duration window; exhausted retries degrade the block to
   per-gate pulse playback ([gate_fallback]) so the pipeline still emits
   a complete, valid schedule.  Attempt 0 takes exactly the plain path
   (no rng, the job's own init, the estimate's guess), so a fault-free
   run is bit-identical to a run without retries.  Each attempt's
   [block_deadline] budget starts when that attempt starts, so it times
   this block's search alone.  The job's RNGs, budgets, fault decisions
   and workspace are private to it, so its result does not depend on
   which domain runs it, or when; telemetry goes to [metrics] as counter
   increments and histogram observations only, and the warnings of a
   degraded block or a failed search are left to the caller's writeback
   ([jr_error]), which logs them in job order. *)
let compute_pulse ?metrics ?process_metrics ?fault
    ?(budget = Epoc_budget.unlimited) ?pool (config : Config.t)
    (j : Ir.pulse_job) : Ir.job_result =
  let record f = Option.iter f metrics in
  let hw = j.Ir.jhw in
  let max_retries = max 0 config.Config.max_retries in
  let limit = hw.Hardware.drive_limit in
  let site = Printf.sprintf "block%d" j.Ir.jid in
  let estimate = lazy (Latency.estimate ~unitary:j.Ir.ju hw j.Ir.jlocal) in
  let base_guess = Latency.guess_slots ~unitary:j.Ir.ju hw j.Ir.jlocal in
  (* wall-clock gauges (iters/s) go to the engine registry, never the
     per-run one *)
  let workspace = Grape.workspace ?metrics:process_metrics () in
  (* jittered restart: perturb the warm start within the drive limit so
     the ascent leaves the basin that diverged *)
  let perturb rng amps =
    Array.map
      (Array.map (fun v ->
           let j = 0.1 *. limit *. (Random.State.float rng 2.0 -. 1.0) in
           Float.max (-.limit) (Float.min limit (v +. j))))
      amps
  in
  let fallback attempt err =
    let fb_duration, fb_fidelity = gate_fallback hw j.Ir.jlocal in
    let e = Lazy.force estimate in
    record (fun m ->
        Metrics.incr m "pulse.fallback";
        Metrics.observe m "degraded.latency_delta_ns"
          (fb_duration -. e.Latency.est_duration);
        Metrics.observe m "degraded.fidelity_delta"
          (Float.max 0.0 (e.Latency.est_fidelity -. fb_fidelity)));
    {
      Ir.jr_duration = fb_duration;
      jr_fidelity = fb_fidelity;
      jr_pulse = None;
      jr_retries = attempt;
      jr_fallback = true;
      jr_error = Some (Epoc_error.to_string err);
    }
  in
  let rec solve attempt =
    let rng, init, guess =
      if attempt = 0 then (None, j.Ir.jinit, base_guess)
      else
        let r = Random.State.make [| 41; j.Ir.jid; attempt |] in
        (Some r, Option.map (perturb r) j.Ir.jinit, base_guess * (attempt + 1))
    in
    match
      Latency.find_min_duration_r ~options:config.Config.latency
        ~initial_guess:guess ?init ?rng
        ~budget:(Epoc_budget.sub ?seconds:config.Config.block_deadline budget)
        ?fault ~site ~attempt ?pool ~workspace hw j.Ir.ju
    with
    | Ok s ->
        record (fun m ->
            record_search m s;
            if s.Latency.result.Grape.warm_start then
              Metrics.incr m "grape.warm_start";
            if attempt > 0 then Metrics.incr m "pulse.retry_success");
        {
          Ir.jr_duration = s.Latency.duration;
          jr_fidelity = s.Latency.fidelity;
          jr_pulse = Some s.Latency.result.Grape.pulse;
          jr_retries = attempt;
          jr_fallback = false;
          jr_error = None;
        }
    | Error (Epoc_error.Duration_unreachable _ as err) ->
        (* duration search exhausted its slot bracket: price the block
           pessimistically from the estimate, not as a gate-pulse
           fallback *)
        let e = Lazy.force estimate in
        record (fun m -> Metrics.incr m "grape.search_failed");
        {
          Ir.jr_duration = 2.0 *. e.Latency.est_duration;
          jr_fidelity = 0.99;
          jr_pulse = None;
          jr_retries = attempt;
          jr_fallback = false;
          jr_error = Some (Epoc_error.to_string err);
        }
    | Error
        ((Epoc_error.Solver_diverged _ | Epoc_error.Deadline_exceeded _) as e)
      ->
        record (fun m -> Metrics.incr m ("grape." ^ Epoc_error.label e));
        if attempt < max_retries then begin
          record (fun m -> Metrics.incr m "pulse.retries");
          Log.info (fun m ->
              m "%s attempt %d failed (%s), retrying" site attempt
                (Epoc_error.label e));
          solve (attempt + 1)
        end
        else fallback attempt e
    | Error e ->
        (* non-retryable (numerical, synthesis): degrade directly *)
        record (fun m -> Metrics.incr m ("grape." ^ Epoc_error.label e));
        fallback attempt e
  in
  let result = solve 0 in
  record (fun m -> Metrics.observe m "pulse.duration_ns" result.Ir.jr_duration);
  result

(* Greedy nearest-neighbor chain over the global-phase-invariant
   Hilbert-Schmidt distance: AccQOC's similarity ordering.  Start at
   index 0, repeatedly hop to the closest unvisited unitary (ties
   resolved toward the lowest index), and return the visit order.  Pure
   and sequential, so the chain — and everything solved along it — is
   identical for any domain count. *)
let similarity_chain (us : Mat.t array) : int array =
  let n = Array.length us in
  let order = Array.make n 0 in
  if n > 0 then begin
    let visited = Array.make n false in
    visited.(0) <- true;
    let cur = ref 0 in
    for step = 1 to n - 1 do
      let best = ref (-1) in
      let best_d = ref infinity in
      for j = 0 to n - 1 do
        if not visited.(j) then begin
          let d = Mat.hs_distance us.(!cur) us.(j) in
          if d < !best_d then begin
            best_d := d;
            best := j
          end
        end
      done;
      visited.(!best) <- true;
      order.(step) <- !best;
      cur := !best
    done
  end;
  order

(* Two pulse instructions commute when every pair of their constituent
   gates sharing a qubit commutes syntactically (conservative). *)
let instructions_commute ops_a ops_b =
  List.for_all
    (fun (a : Circuit.op) ->
      List.for_all
        (fun (b : Circuit.op) ->
          (not (List.exists (fun q -> List.mem q b.Circuit.qubits) a.Circuit.qubits))
          || Peephole.commutes a b)
        ops_b)
    ops_a

(* Commutation-aware list scheduling of pulse instructions on [n] qubit
   lines ([Lines.list_order]): an instruction waits for the earlier
   qubit-sharing instructions it does not commute with, so the reordering
   only swaps commuting or disjoint pulses. *)
let list_schedule ~n (items : (Schedule.instruction * Circuit.op list) list) =
  List.map fst
    (Lines.list_order ~n
       ~qubits:(fun ((i : Schedule.instruction), _) -> i.Schedule.qubits)
       ~duration:(fun ((i : Schedule.instruction), _) -> i.Schedule.duration)
       ~commute:(fun (_, a) (_, b) -> instructions_commute a b)
       items)

(* Resolve every job against the library in three phases whose library
   interaction order is independent of the domain count:

   1. sequentially, in job order: probe the library; misses consult the
      persistent store (when one is attached) — an exact store hit skips
      GRAPE entirely and lands in the library like a computed pulse would
      have, a near hit seeds the job's warm start ([jinit]); remaining
      misses become compute representatives unless an earlier
      representative already covers an equivalent unitary (then the job
      aliases it — the sequential pipeline would have hit the entry that
      representative was about to add);
   2. in parallel: the pure pulse computation of each representative
      ([compute_pulse] in Grape mode, the estimate otherwise).  Grape
      representatives go group by group — one group per (width, hardware
      context), in first-occurrence order — and each group is one
      [Pool.map], or with [similarity_order] a sequential chain;
      estimates are one [Pool.map];
   3. sequentially, in job order: representatives add their entry (and
      count nothing — their miss was counted in phase 1) and log their
      solver warnings, aliases re-probe and register the hit their
      sequential counterpart would have had.

   The counter totals and the stored entries are exactly those of a fully
   sequential run: store probes and the cache.* counters live entirely in
   the sequential phase 1, and warm starts only change GRAPE's starting
   point, which phase 2 computes from per-job state.  Phase 1 finds the
   covering representative through a table keyed like the library (a
   bucket holds pairwise non-matching representatives, so at most one
   bucket entry can match a probe), keeping the scan O(jobs) instead of
   O(jobs^2).  Every phase reads the job's model, context, canonical form
   and key, computed once when the [pulses] pass built it, so no probe
   looks a model up or fingerprints again.

   Degraded representatives (gate-pulse fallback) never enter the
   library: the fallback values are block-local prices, not reusable
   pulses.  The driver persists what [Ir.fresh_pulses] lists — the
   clean representatives, with the entry phase 3 adds — so degraded
   ones stay out of the persistent store too and a later run re-attempts
   the solve.  Aliases of a degraded representative inherit its
   resolved values — and its degraded flag — directly.

   Returns (jobs, representatives) counts for the stage report. *)
let resolve_pulses ?(request_id = "-") ?metrics ?process_metrics ?cache ?fault
    ?(budget = Epoc_budget.unlimited) (config : Config.t) pool library jobs =
  let record f = Option.iter f metrics in
  (* Library miss: try the persistent store under the job's key.  [true]
     = the store resolved the job (the stored entry enters the library),
     so it is not a rep. *)
  let consult_cache (j : Ir.pulse_job) =
    match cache with
    | None -> false
    | Some store -> (
        match
          Store.find store ~key:j.Ir.jkey ~matches:(Library.matches library)
            j.Ir.jcanon
        with
        | Some e ->
            record (fun m -> Metrics.incr m "cache.hits");
            Library.add library ~key:j.Ir.jkey e;
            j.Ir.resolved <- Some (e.Library.duration, e.Library.fidelity);
            j.Ir.jpulse <- e.Library.pulse;
            true
        | None ->
            record (fun m -> Metrics.incr m "cache.misses");
            (if config.Config.qoc_mode = Config.Grape then
               match Store.nearest ~context:j.Ir.jcontext store j.Ir.jcanon with
               | Some (e, _) ->
                   record (fun m -> Metrics.incr m "cache.near_hits");
                   j.Ir.jinit <-
                     Option.map
                       (fun (p : Grape.pulse) -> p.Grape.amplitudes)
                       e.Library.pulse
               | None -> ());
            false)
  in
  (* equivalence is scoped to the reuse context through the key: two
     blocks with the same unitary but different coupling subgraphs need
     distinct pulses *)
  let rep_tbl : (Digest.t, Ir.pulse_job list) Hashtbl.t = Hashtbl.create 64 in
  let reps = ref [] in
  List.iter
    (fun (j : Ir.pulse_job) ->
      let bucket =
        Option.value ~default:[] (Hashtbl.find_opt rep_tbl j.Ir.jkey)
      in
      match
        List.find_opt
          (fun (r : Ir.pulse_job) ->
            Library.matches library r.Ir.jcanon j.Ir.jcanon)
          bucket
      with
      | Some r -> j.Ir.batch_rep <- Some r
      | None -> (
          match Library.find library ~key:j.Ir.jkey j.Ir.jcanon with
          | Some e ->
              j.Ir.resolved <- Some (e.Library.duration, e.Library.fidelity);
              j.Ir.jpulse <- e.Library.pulse
          | None ->
              if not (consult_cache j) then begin
                Hashtbl.replace rep_tbl j.Ir.jkey (j :: bucket);
                reps := j :: !reps
              end))
    jobs;
  let reps = List.rev !reps in
  (* The pure pulse computation of one representative.  Telemetry
     recording is commutative (counters and histogram observations), so
     sharing the registry across workers keeps the determinism
     contract. *)
  let compute (j : Ir.pulse_job) =
    match config.Config.qoc_mode with
    | Config.Grape ->
        compute_pulse ?metrics ?process_metrics ?fault ~budget ~pool config j
    | Config.Estimate ->
        let e = Latency.estimate ~unitary:j.Ir.ju j.Ir.jhw j.Ir.jlocal in
        record (fun m ->
            Metrics.incr m "qoc.estimates";
            Metrics.observe m "pulse.duration_ns" e.Latency.est_duration);
        {
          Ir.jr_duration = e.Latency.est_duration;
          jr_fidelity = e.Latency.est_fidelity;
          jr_pulse = None;
          jr_retries = 0;
          jr_fallback = false;
          jr_error = None;
        }
  in
  (* A group's searches share the pool only with each other: a group
     ends before the next starts, so a lone wide search — a group of its
     own — has every domain for its segment sweeps instead of sweeping on
     one beside domains its group-mates' fan-out still holds.  Estimates
     are cheap and never fan out inside, so they go out as one group. *)
  let groups =
    match config.Config.qoc_mode with
    | Config.Estimate -> [ reps ]
    | Config.Grape ->
        let order = ref [] in
        let by_group : (int * string, Ir.pulse_job list ref) Hashtbl.t =
          Hashtbl.create 8
        in
        List.iter
          (fun (j : Ir.pulse_job) ->
            let key = (j.Ir.jk, j.Ir.jcontext) in
            match Hashtbl.find_opt by_group key with
            | Some l -> l := j :: !l
            | None ->
                Hashtbl.add by_group key (ref [ j ]);
                order := key :: !order)
          reps;
        List.rev_map (fun key -> List.rev !(Hashtbl.find by_group key)) !order
  in
  List.iter
    (fun group ->
      if config.Config.qoc_mode = Config.Grape && config.Config.similarity_order
      then begin
        (* AccQOC similarity ordering: walk the group (equal widths share
           a Hilbert-space dimension; blocks on different coupling
           subgraphs have different Hamiltonians) along a greedy
           nearest-neighbor chain in Hilbert-Schmidt distance and solve
           sequentially, seeding each solve with the previous result's
           amplitudes unless the persistent store already provided a
           (closer) warm start.  Sequential by design — chaining is the
           point — and the chain is computed from per-job state, so
           results stay independent of the domain count. *)
        let arr = Array.of_list group in
        let chain =
          similarity_chain (Array.map (fun (j : Ir.pulse_job) -> j.Ir.jcanon) arr)
        in
        let prev = ref None in
        Array.iter
          (fun idx ->
            let j = arr.(idx) in
            (match (j.Ir.jinit, !prev) with
            | None, Some amps ->
                j.Ir.jinit <- Some amps;
                record (fun m -> Metrics.incr m "pulse.chained")
            | _ -> ());
            let r = compute j in
            j.Ir.computed <- Some r;
            match r.Ir.jr_pulse with
            | Some p -> prev := Some p.Grape.amplitudes
            | None -> ())
          chain
      end
      else
        List.iter2
          (fun (j : Ir.pulse_job) v -> j.Ir.computed <- Some v)
          group (Pool.map pool compute group))
    groups;
  List.iter
    (fun (j : Ir.pulse_job) ->
      if j.Ir.resolved = None then
        match j.Ir.batch_rep with
        | Some r -> (
            match Library.find library ~key:j.Ir.jkey j.Ir.jcanon with
            | Some e ->
                j.Ir.resolved <- Some (e.Library.duration, e.Library.fidelity);
                j.Ir.jpulse <- e.Library.pulse
            | None ->
                (* the representative degraded (nothing was added to the
                   library), so this alias plays gate pulses too *)
                j.Ir.resolved <- r.Ir.resolved;
                j.Ir.jfallback <- r.Ir.jfallback)
        | None ->
            let r = Option.get j.Ir.computed in
            (match r.Ir.jr_error with
            | Some err when r.Ir.jr_fallback ->
                Log.warn (fun m ->
                    m
                      "[%s] block%d degraded to gate-pulse playback after %d \
                       attempt(s): %s"
                      request_id j.Ir.jid (r.Ir.jr_retries + 1) err)
            | Some _ ->
                Log.warn (fun m ->
                    m "GRAPE duration search failed on a %d-qubit block"
                      j.Ir.jhw.Hardware.n)
            | None -> ());
            j.Ir.jretries <- r.Ir.jr_retries;
            if r.Ir.jr_fallback then j.Ir.jfallback <- true
            else begin
              Library.add library ~key:j.Ir.jkey (Ir.solved_entry j r);
              j.Ir.jpulse <- r.Ir.jr_pulse
            end;
            j.Ir.resolved <- Some (r.Ir.jr_duration, r.Ir.jr_fidelity))
    jobs;
  (List.length jobs, List.length reps)

(* First minimum by schedule latency; ties keep the earliest candidate so
   selection matches a stable sort regardless of evaluation order. *)
let best_by_latency pairs =
  match pairs with
  | [] -> invalid_arg "best_by_latency: no schedules"
  | first :: rest ->
      List.fold_left
        (fun (bs, bx) (s, x) ->
          if Schedule.latency s < Schedule.latency bs then (s, x) else (bs, bx))
        first rest

let resolved_durations (ir : Ir.t) =
  List.concat_map
    (List.filter_map (fun (_, job) ->
         Option.bind job (fun (j : Ir.pulse_job) -> j.Ir.resolved)))
    ir.Ir.groupings

(* --- passes -------------------------------------------------------------- *)

(* Commutation analysis: slide commuting gates into parallel layers. *)
let reorder_gates =
  Pass.make "reorder"
    ~counters:(fun _ (ir : Ir.t) -> [ ("depth", Circuit.depth ir.Ir.circuit) ])
    (fun _ctx ir ->
      { ir with Ir.circuit = Reorder.commutation_aware ir.Ir.circuit })

(* The device coupling graph restricting partition merges, when the
   session compiles for a concrete device; [None] keeps the historical
   all-to-all grouping. *)
let device_coupling (config : Config.t) =
  Option.map Epoc_device.Device.pairs config.Config.device

(* Greedy partition of the current gate-level circuit, restricted to the
   device's coupling subgraph when one is configured. *)
let partition =
  Pass.make "partition"
    ~counters:(fun _ (ir : Ir.t) ->
      Partition.counters (Partition.stage_report ir.Ir.blocks))
    (fun ctx ir ->
      {
        ir with
        Ir.blocks =
          Partition.partition ~config:ctx.Pass.config.Config.partition
            ?coupling:(device_coupling ctx.Pass.config) ir.Ir.circuit;
      })

(* VUG synthesis per block — independent searches with fixed seeds,
   fanned out over the pool — and reassembly into the VUG circuit.

   When a synthesis store is attached, each block's local circuit is
   looked up *sequentially, in block order* before the fan-out (so store
   probes and the synth.cache.* counters are independent of the domain
   count);
   a verified hit replays the stored circuit with zeroed search counters
   — no QSearch runs for that block — and misses synthesize in parallel
   exactly as without a store.  Fresh results are not written here:
   candidate compilation never mutates shared state; they ride the IR
   ([synth_fresh]) to the driver, which records them at pipeline end. *)
let synthesis =
  Pass.make "synthesis"
    ~counters:(fun _ (ir : Ir.t) ->
      Synthesis.counters (Synthesis.stage_report (List.map snd ir.Ir.synth)))
    (fun ctx ir ->
      let config = ctx.Pass.config in
      (* index before the fan-out: the block's position names its solve
         site ("synth<i>") for fault matching and deadline reports *)
      let indexed = List.mapi (fun i b -> (i, b)) ir.Ir.blocks in
      let m = ctx.Pass.metrics in
      let store =
        match ctx.Pass.synth with
        | Some store when config.Config.use_synthesis -> Some store
        | _ -> None
      in
      (* phase 1 (sequential): consult the synthesis store; each item
         carries the replayed result on a hit *)
      let consulted =
        List.map
          (fun (i, b) ->
            ( (i, b),
              Option.bind store (fun store ->
                  match Synth_store.find store (Partition.block_circuit b) with
                  | Some e ->
                      Metrics.incr m "synth.cache.hits";
                      Some (Synth_store.to_block_result e)
                  | None ->
                      Metrics.incr m "synth.cache.misses";
                      None) ))
          indexed
      in
      (* phase 2 (parallel): synthesize the misses *)
      let synth_full =
        Pool.map ctx.Pass.pool
          (fun ((i, b), cached) ->
            let r =
              match cached with
              | Some r -> r
              | None ->
                  let local = Partition.block_circuit b in
                  if config.Config.use_synthesis then
                    let budget =
                      Epoc_budget.sub ?seconds:config.Config.block_deadline
                        ctx.Pass.budget
                    in
                    Synthesis.synthesize_block ~options:config.Config.synthesis
                      ~budget ?fault:ctx.Pass.fault
                      ~site:(Printf.sprintf "synth%d" i) local
                  else
                    {
                      Synthesis.circuit = Synthesis.vug_form local;
                      source = Synthesis.Fallback;
                      distance = 0.0;
                      expansions = 0;
                      prunes = 0;
                      open_max = 0;
                      failure = None;
                    }
            in
            (b, Option.is_some cached, r))
          consulted
      in
      let synth = List.map (fun (b, _, r) -> (b, r)) synth_full in
      (* fresh, clean results to persist at pipeline end (failures must
         be re-attempted by a later run, never replayed) *)
      let synth_fresh =
        if Option.is_none store then []
        else
          List.filter_map
            (fun (b, was_cached, (r : Synthesis.block_result)) ->
              if (not was_cached) && r.Synthesis.failure = None then
                Some (Partition.block_circuit b, r)
              else None)
            synth_full
      in
      let vug_circuit =
        List.fold_left
          (fun acc (b, r) ->
            Circuit.append acc
              (Partition.circuit_on_block_qubits b r.Synthesis.circuit
                 ~n:ir.Ir.n))
          (Circuit.empty ir.Ir.n) synth
      in
      (* QSearch telemetry, recorded in block order after the fan-out;
         replayed hits carry zeroed search counters, so a fully warm run
         leaves the qsearch.* metrics untouched *)
      List.iter
        (fun (_, (r : Synthesis.block_result)) ->
          Metrics.incr m "synth.blocks";
          if r.Synthesis.source = Synthesis.Synthesized then
            Metrics.incr m "synth.synthesized";
          if r.Synthesis.open_max > 0 then begin
            (* a search actually ran on this block *)
            Metrics.observe m "qsearch.expansions"
              (float_of_int r.Synthesis.expansions);
            Metrics.incr ~by:r.Synthesis.prunes m "qsearch.prunes";
            Metrics.peak m "qsearch.open_high_water"
              (float_of_int r.Synthesis.open_max)
          end;
          Option.iter
            (fun err ->
              Metrics.incr m "synth.failures";
              Log.warn (fun l -> l "synthesis fell back: %s" err))
            r.Synthesis.failure;
          Metrics.observe m "synth.cnots_per_block"
            (float_of_int (Circuit.count_gate "cx" r.Synthesis.circuit)))
        synth;
      { ir with Ir.synth; synth_fresh; vug_circuit })

(* Commutation analysis on the synthesized VUG circuit. *)
let reorder_vugs =
  Pass.make "reorder-vug"
    ~counters:(fun _ (ir : Ir.t) ->
      [ ("depth", Circuit.depth ir.Ir.vug_circuit) ])
    (fun _ctx ir ->
      { ir with Ir.vug_circuit = Reorder.commutation_aware ir.Ir.vug_circuit })

let trivial_groups (vug_circuit : Circuit.t) =
  List.map
    (fun (op : Circuit.op) ->
      { Partition.qubits = List.sort compare op.Circuit.qubits; ops = [ op ] })
    (Circuit.ops vug_circuit)

let as_grouping groups : Ir.grouping = List.map (fun g -> (g, None)) groups

let grouping_counters _ (ir : Ir.t) =
  [
    ("groupings", List.length ir.Ir.groupings);
    ("groups", List.fold_left (fun acc g -> acc + List.length g) 0 ir.Ir.groupings);
  ]

(* Treat each VUG/CX as its own pulse: the no-regroup setting. *)
let regroup_trivial =
  Pass.make "regroup" ~counters:grouping_counters (fun _ctx ir ->
      { ir with Ir.groupings = [ as_grouping (trivial_groups ir.Ir.vug_circuit) ] })

(* Regroup sweep: several regroup widths are explored and the schedule
   with the lowest latency wins — wider groups pack pulses tighter but
   occupy more qubit lines.  The trivial per-op grouping is always a
   candidate, so regrouping can only improve the schedule. *)
let regroup_sweep =
  Pass.make "regroup" ~counters:grouping_counters (fun ctx ir ->
      let config = ctx.Pass.config in
      let widths =
        match config.Config.regroup_widths with
        | [] -> [ config.Config.regroup_partition.Partition.qubit_limit ]
        | ws -> ws
      in
      let groupings =
        trivial_groups ir.Ir.vug_circuit
        :: List.map
             (fun w ->
               Partition.partition
                 ~config:
                   {
                     config.Config.regroup_partition with
                     Partition.qubit_limit = w;
                   }
                 ?coupling:(device_coupling config) ir.Ir.vug_circuit)
             widths
      in
      { ir with Ir.groupings = List.map as_grouping groupings })

(* Pulse generation: annotate every group across all regroupings with its
   pulse job, then resolve the whole batch at once against the library;
   diagonal single-qubit groups are virtual-Z frame updates and cost
   nothing (as on real transmon stacks). *)
let pulses =
  Pass.make "pulses"
    ~counters:(fun ctx (ir : Ir.t) ->
      Latency.counters
        (Latency.stage_report ~computed:ir.Ir.pulse_computed
           (resolved_durations ir))
      @ Library.counters (Library.stats ctx.Pass.library))
    (fun ctx ir ->
      let library = ctx.Pass.library in
      (* Every layer of reuse — representatives, library, persistent
         store — is scoped to the block model a pulse was solved on, and
         estimate-mode entries also to their mode (a priced block is not a
         solved pulse, so the two modes never answer each other's probes).
         GRAPE contexts are the bare model tags. *)
      let mode_tag =
        match ctx.Pass.config.Config.qoc_mode with
        | Config.Grape -> ""
        | Config.Estimate -> "estimate;"
      in
      (* batch-order job ids name the solve sites ("block<jid>"); the
         annotation scan is sequential, so ids are deterministic, and it
         looks every block model up before the fan-out, which only reads
         the hardware memo *)
      let next_jid = ref 0 in
      let annotated =
        List.map
          (fun grouping ->
            List.map
              (fun ((g : Partition.block), _) ->
                let local = Partition.block_circuit g in
                let u = Circuit.unitary local in
                let k = Circuit.n_qubits local in
                if k = 1 && Mat.is_diagonal ~eps:1e-9 u then (g, None)
                else begin
                  let jid = !next_jid in
                  incr next_jid;
                  let hw =
                    ctx.Pass.hardware_block
                      (List.sort compare g.Partition.qubits)
                  in
                  let context = mode_tag ^ hw.Hardware.context in
                  let canon = Library.canonicalize library u in
                  ( g,
                    Some
                      {
                        Ir.jid;
                        ju = u;
                        jk = k;
                        jlocal = local;
                        jhw = hw;
                        jcontext = context;
                        jcanon = canon;
                        jkey = Library.key ~context canon;
                        resolved = None;
                        batch_rep = None;
                        jinit = None;
                        computed = None;
                        jfallback = false;
                        jretries = 0;
                        jpulse = None;
                      } )
                end)
              grouping)
          ir.Ir.groupings
      in
      let jobs = List.concat_map (List.filter_map snd) annotated in
      let n_jobs, n_computed =
        resolve_pulses ~request_id:ctx.Pass.request_id
          ~metrics:ctx.Pass.metrics ~process_metrics:ctx.Pass.process
          ?cache:ctx.Pass.cache ?fault:ctx.Pass.fault ~budget:ctx.Pass.budget
          ctx.Pass.config ctx.Pass.pool library jobs
      in
      Metrics.incr ~by:n_jobs ctx.Pass.metrics "pulse.jobs";
      Metrics.incr ~by:n_computed ctx.Pass.metrics "pulse.computed";
      Log.info (fun m ->
          m "[%s] pulses: %d jobs, %d fresh computations (library resolved %d)"
            ctx.Pass.request_id n_jobs n_computed (n_jobs - n_computed));
      {
        ir with
        Ir.groupings = annotated;
        pulse_jobs = n_jobs;
        pulse_computed = n_computed;
      })

(* Build one schedule per regrouping (pure, fanned out) and keep the
   lowest-latency one. *)
let schedule =
  Pass.make "schedule"
    ~counters:(fun _ (ir : Ir.t) -> Schedule.counters (Ir.schedule_exn ir))
    (fun ctx ir ->
      let config = ctx.Pass.config in
      let schedules =
        Pool.map ctx.Pass.pool
          (fun grouping ->
            let items =
              List.filter_map
                (fun ((g : Partition.block), job) ->
                  Option.map
                    (fun (j : Ir.pulse_job) ->
                      let duration, fidelity = Option.get j.Ir.resolved in
                      ( {
                          Schedule.qubits = g.Partition.qubits;
                          duration;
                          fidelity;
                          label =
                            (if j.Ir.jfallback then Fmt.str "fb%d" j.Ir.jk
                             else Fmt.str "g%d" j.Ir.jk);
                          pulse = j.Ir.jpulse;
                        },
                        g.Partition.ops ))
                    job)
                grouping
            in
            let ordered =
              if config.Config.commutation_reorder then
                list_schedule ~n:ir.Ir.n items
              else List.map fst items
            in
            Schedule.schedule ~n:ir.Ir.n ordered)
          ir.Ir.groupings
      in
      let best, best_grouping =
        best_by_latency (List.combine schedules ir.Ir.groupings)
      in
      (* resilience accounting over the winning grouping only: count
         each degraded computation once (aliases share their
         representative, compared by physical identity) *)
      let reps =
        List.fold_left
          (fun acc (_, job) ->
            match job with
            | None -> acc
            | Some (j : Ir.pulse_job) ->
                let r =
                  match j.Ir.batch_rep with Some r -> r | None -> j
                in
                if List.memq r acc then acc else r :: acc)
          [] best_grouping
      in
      let degraded_blocks =
        List.length (List.filter (fun (j : Ir.pulse_job) -> j.Ir.jfallback) reps)
      in
      let pulse_retries =
        List.fold_left (fun acc (j : Ir.pulse_job) -> acc + j.Ir.jretries) 0 reps
      in
      { ir with Ir.schedule = Some best; degraded_blocks; pulse_retries })
