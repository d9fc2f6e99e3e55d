(* The EPOC pipeline (paper Figure 3, right column), as a pass pipeline:

     input circuit
       -> ZX graph optimization        (Epoc_zx.Zx.optimize, candidates)
       -> per candidate, the declarative pass list of [candidate_passes]:
            reorder | partition | synthesis | reorder-vug
            | regroup | pulses | schedule            (lib/epoc/stages.ml)
       -> best candidate schedule wins

   Soundness: every stage output is unitarily equivalent to its input (ZX
   verifies or falls back; synthesis verifies or falls back; partitioning
   preserves per-qubit gate order), so the generated pulse program
   implements the input circuit by construction.

   Parallelism: the expensive stages fan out over an [Epoc_parallel.Pool]
   — per-block synthesis, per-regrouping schedule construction, the
   numeric half of pulse generation, and the candidate
   representations.  Every parallel region is either pure (fixed RNG
   seeds, no shared mutable state) or works on a forked library that is
   absorbed in a fixed order, and all fan-outs preserve item order, so
   results are bit-identical for any domain count.  The stores are
   written once, after the fan-out, from what the candidates' IRs say
   they solved.

   Tracing: every pass runs inside a [Trace] span with stage counters;
   candidate compilation traces into per-candidate child sinks absorbed
   in candidate order under "candN/" prefixes.  The trace rides on the
   result and is the only non-deterministic part of it (wall-clock). *)

open Epoc_circuit
open Epoc_pulse
open Epoc_parallel
module Metrics = Epoc_obs.Metrics
module Trace = Epoc_obs.Trace
module Json = Epoc_obs.Json
module Store = Epoc_cache.Store
module Synth_store = Epoc_cache.Synth_store

type stage_stats = {
  input_depth : int;
  zx_depth : int; (* depth after graph optimization, before reordering *)
  zx_used_graph : bool;
  blocks : int;
  synthesized_blocks : int; (* blocks where search beat the direct form *)
  vug_count : int;
  cx_count : int;
  pulse_count : int;
  degraded_blocks : int; (* chosen-schedule computations degraded to gate pulses *)
  retries : int; (* retry attempts burned by the chosen schedule *)
}

type result = {
  name : string;
  request_id : string; (* stable identity of this compile request *)
  device : string; (* target device name; "default" for the chain model *)
  latency : float; (* ns *)
  esp : float;
  compile_time : float; (* s *)
  schedule : Schedule.t;
  stats : stage_stats;
  library_stats : Library.stats;
  qoc_mode : Config.qoc_mode;
  trace : Trace.t; (* per-stage wall-clock + counters *)
  metrics : Metrics.t; (* per-run registry: solver telemetry, stage counts *)
}

(* A compilation flow: a graph stage producing equivalent candidate
   representations (with trace counters), and a config-derived pass list
   each candidate runs through.  [run] instantiates it for EPOC; the
   baselines in baselines.ml reuse the same driver with their own pass
   lists. *)
type flow = {
  graph :
    Pass.ctx -> Circuit.t -> (Circuit.t * bool) list * (string * int) list;
  passes : Config.t -> Pass.t list;
}

(* The EPOC per-candidate pipeline, declaratively derived from the
   config: which passes run (reorder, regroup sweep vs trivial grouping)
   is decided here, how each runs is decided inside the pass. *)
let candidate_passes (config : Config.t) : Pass.t list =
  (if config.Config.commutation_reorder then [ Stages.reorder_gates ] else [])
  @ [ Stages.partition; Stages.synthesis ]
  @ (if config.Config.commutation_reorder then [ Stages.reorder_vugs ] else [])
  @ [
      (if config.Config.regroup then Stages.regroup_sweep
       else Stages.regroup_trivial);
      Stages.pulses;
      Stages.schedule;
    ]

(* Graph-based depth optimization: the stage yields up to two equivalent
   representations (ZX-extracted and peephole-optimized) — the
   "continuous optimization through equivalent representations" of the
   paper. *)
let epoc_graph (ctx : Pass.ctx) (circuit : Circuit.t) =
  if ctx.Pass.config.Config.use_zx then begin
    let graph = Epoc_zx.Zx.optimize circuit in
    let peephole =
      Epoc_zx.Zx.optimize ~strategy:Epoc_zx.Zx.Peephole_only circuit
    in
    let candidates =
      if graph.Epoc_zx.Zx.used = Epoc_zx.Zx.Graph then
        [ (graph.Epoc_zx.Zx.circuit, true); (peephole.Epoc_zx.Zx.circuit, false) ]
      else [ (peephole.Epoc_zx.Zx.circuit, false) ]
    in
    (candidates, ("candidates", List.length candidates) :: Epoc_zx.Zx.counters graph)
  end
  else ([ (circuit, false) ], [ ("candidates", 1) ])

let epoc_flow = { graph = epoc_graph; passes = candidate_passes }

let stats_of_ir (ir : Ir.t) =
  {
    input_depth = ir.Ir.input_depth;
    zx_depth = ir.Ir.opt_depth;
    zx_used_graph = ir.Ir.zx_used_graph;
    blocks = List.length ir.Ir.blocks;
    synthesized_blocks = Ir.synthesized_blocks ir;
    vug_count = Circuit.single_qubit_count ir.Ir.vug_circuit;
    cx_count = Circuit.count_gate "cx" ir.Ir.vug_circuit;
    pulse_count = Schedule.instruction_count (Ir.schedule_exn ir);
    degraded_blocks = ir.Ir.degraded_blocks;
    retries = ir.Ir.pulse_retries;
  }

(* Compile one candidate representation down to a schedule by running the
   flow's pass list over a fresh IR, tracing into [ctx]'s sink. *)
let compile_candidate (ctx : Pass.ctx) passes ir0 ((optimized : Circuit.t), zx_used_graph)
    =
  let ir = Ir.with_candidate ir0 optimized ~zx_used_graph in
  Pass.run_list ctx passes ir

(* Compile [circuit] through a flow, in [session]: graph stage,
   candidate fan-out — every candidate on its own [Pass.fork_ctx], one
   candidate or several — winner selection, absorption of the forks
   (libraries winner first, then in candidate order; traces and metrics
   in candidate order) and one persist step.

   This is the driver every entry point lands on.  Shared state (pool,
   persistent stores, hardware memo, engine registry) is read through
   the session; per-run state (config, library handle, trace, metrics,
   budget, fault spec) is the session's own. *)
let compile_flow (session : Engine.session) flow (circuit : Circuit.t) =
  let t0 = Unix.gettimeofday () in
  let config = Engine.session_config session in
  let name = Engine.session_name session in
  let ctx = Pass.of_session session in
  let library = ctx.Pass.library in
  let trace = ctx.Pass.trace in
  let metrics = ctx.Pass.metrics in
  let candidates =
    Trace.span_with trace "graph" (fun () -> flow.graph ctx circuit)
  in
  let passes = flow.passes config in
  let ir0 = Ir.of_circuit ~name circuit in
  let published =
    Trace.span_with trace "candidates" (fun () ->
        let forks = List.map (fun _ -> Pass.fork_ctx ctx) candidates in
        let irs =
          Pool.map ctx.Pass.pool
            (fun (cctx, cand) -> compile_candidate cctx passes ir0 cand)
            (List.combine forks candidates)
        in
        let _, winner =
          Stages.best_by_latency
            (List.mapi (fun i ir -> (Ir.schedule_exn ir, i)) irs)
        in
        let winner_first l =
          List.nth l winner :: List.filteri (fun i _ -> i <> winner) l
        in
        (* the winner's library first, then the others in candidate
           order: [Library.absorb] keeps the first of two entries whose
           unitaries match within epsilon, so a warm compile is answered
           with the durations the winning schedule used.  A winner's
           alias that matches a loser's entry but not its own
           representative could still take the loser's value. *)
        List.iter
          (fun (c : Pass.ctx) -> Library.absorb library c.Pass.library)
          (winner_first forks);
        List.iteri
          (fun i (c : Pass.ctx) ->
            Trace.absorb trace ~prefix:(Fmt.str "cand%d/" i) c.Pass.trace;
            Metrics.absorb metrics c.Pass.metrics)
          forks;
        (winner_first irs, [ ("candidates", List.length irs) ]))
  in
  let best = List.hd published in
  let schedule = Ir.schedule_exn best in
  let stats = Trace.span trace "select" (fun () -> stats_of_ir best) in
  let esp =
    Trace.span trace "esp" (fun () ->
        Esp.of_schedule ~t_coherence:config.Config.t_coherence schedule)
  in
  let compile_time = Unix.gettimeofday () -. t0 in
  let latency = Schedule.latency schedule in
  (* run-level summary gauges, set by the coordinator after selection;
     these are model quantities (ns, probability), not wall clock, so
     they stay deterministic across domain counts *)
  Metrics.set metrics "pipeline.latency_ns" latency;
  Metrics.set metrics "pipeline.esp" esp;
  Metrics.incr metrics "pipeline.runs";
  Metrics.set metrics "pipeline.degraded_blocks"
    (float_of_int stats.degraded_blocks);
  Metrics.set metrics "pipeline.retries" (float_of_int stats.retries);
  if stats.degraded_blocks > 0 then
    Stages.Log.warn (fun m ->
        m "%s: %d block(s) degraded to gate-pulse playback" name
          stats.degraded_blocks);
  (* persist what the run solved, winner first: candidates only probed
     the stores and carried their fresh pulses and syntheses on the IR,
     so store writes stay outside every parallel region.  One flush
     through the engine, which keeps a failed write's records queued;
     the gauges report the merged on-disk counts, which stay honest
     after a torn-write recovery (skipped lines are not entries). *)
  List.iter
    (fun ir ->
      Option.iter
        (fun s ->
          List.iter (fun (key, e) -> Store.record s ~key e) (Ir.fresh_pulses ir))
        ctx.Pass.cache;
      Option.iter
        (fun s ->
          List.iter (fun (b, r) -> Synth_store.record s b r) ir.Ir.synth_fresh)
        ctx.Pass.synth)
    published;
  Engine.flush (Engine.session_engine session);
  let gauge name count =
    Option.iter (fun s -> Metrics.set metrics name (float_of_int (count s)))
  in
  gauge "cache.entries" Store.merged_count ctx.Pass.cache;
  gauge "synth.cache.entries" Synth_store.merged_count ctx.Pass.synth;
  {
    name;
    request_id = Engine.session_request_id session;
    device =
      (match config.Config.device with
      | Some d -> d.Epoc_device.Device.name
      | None -> "default");
    latency;
    esp;
    compile_time;
    schedule;
    stats;
    library_stats = Library.stats library;
    qoc_mode = config.Config.qoc_mode;
    trace;
    metrics;
  }

(* Compile through the full EPOC flow, in [session]. *)
let compile session (circuit : Circuit.t) = compile_flow session epoc_flow circuit

(* --- the result summary ------------------------------------------------- *)

(* The CLI exit contract of a finished compile: ok/0, or degraded/3 when
   some block plays gate pulses instead of an optimized pulse. *)
let status r =
  if r.stats.degraded_blocks = 0 then ("ok", 0) else ("degraded", 3)

(* The one rendering of a result that every reader shares: report --json,
   serve responses, the daemon's flight recorder and bench rows each add
   their own fields around these, so a number reads the same wherever it
   is read. *)
let summary ~flow r =
  let status, code = status r in
  let count name = Json.of_int (Metrics.counter_value r.metrics name) in
  [
    ("request_id", Json.Str r.request_id);
    ("flow", Json.Str flow);
    ("device", Json.Str r.device);
    ( "mode",
      Json.Str
        (match r.qoc_mode with
        | Config.Grape -> "grape"
        | Config.Estimate -> "estimate") );
    ("status", Json.Str status);
    ("code", Json.of_int code);
    ("latency_ns", Json.Num r.latency);
    ("esp", Json.Num r.esp);
    ("compile_s", Json.Num r.compile_time);
    ("pulses", Json.of_int r.stats.pulse_count);
    ("degraded_blocks", Json.of_int r.stats.degraded_blocks);
    ("retries", Json.of_int r.stats.retries);
    ("cache_hits", count "cache.hits");
    ("cache_near_hits", count "cache.near_hits");
    ("cache_misses", count "cache.misses");
    ("synth_cache_hits", count "synth.cache.hits");
    ("synth_cache_misses", count "synth.cache.misses");
  ]
