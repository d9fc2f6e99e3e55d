(** The EPOC pipeline (paper Figure 3, right column) as a pass pipeline:
    graph-stage candidates, a config-derived pass list per candidate,
    best-schedule selection.

    Determinism contract: every parallel region is either pure or works
    on forked state absorbed in a fixed order, so results are
    bit-identical for any domain count.  The trace (wall clock) is the
    only non-deterministic part of a result. *)

open Epoc_circuit
open Epoc_pulse
module Metrics = Epoc_obs.Metrics

type stage_stats = {
  input_depth : int;
  zx_depth : int;  (** depth after graph optimization, before reordering *)
  zx_used_graph : bool;
  blocks : int;
  synthesized_blocks : int;
      (** blocks where search beat the direct form *)
  vug_count : int;
  cx_count : int;
  pulse_count : int;
  degraded_blocks : int;
      (** chosen-schedule computations that exhausted their retries and
          play gate pulses instead of an optimized pulse *)
  retries : int;  (** retry attempts burned by the chosen schedule *)
}

type result = {
  name : string;
  request_id : string;
      (** stable identity of this compile request (from the engine, or
          the caller's [?request_id]); the same id prefixes the run's
          logs and, in the serve daemon, keys its flight-recorder entry *)
  device : string;
      (** name of the target device; ["default"] for the default chain
          model *)
  latency : float;  (** ns *)
  esp : float;
  compile_time : float;  (** s *)
  schedule : Schedule.t;
  stats : stage_stats;
  library_stats : Library.stats;
  qoc_mode : Config.qoc_mode;
  trace : Epoc_obs.Trace.t;  (** per-stage wall-clock + counters *)
  metrics : Metrics.t;
      (** per-run registry: solver telemetry, stage counts *)
}

(** A compilation flow: a graph stage producing equivalent candidate
    representations (with trace counters), and a config-derived pass
    list each candidate runs through.  Concrete so the baselines build
    their own flows over the shared driver. *)
type flow = {
  graph :
    Pass.ctx -> Circuit.t -> (Circuit.t * bool) list * (string * int) list;
  passes : Config.t -> Pass.t list;
}

(** Compile a circuit through a flow, in a session: graph stage,
    candidate fan-out — every candidate on its own {!Pass.fork_ctx},
    merged back in candidate order, except that the winning candidate's
    library fork is merged first — and best-schedule selection.  This
    is the driver every entry point lands on; {!Engine.session} is the
    single carrier of shared and per-run state (config, pool, stores,
    library, trace, metrics, budget).

    The pulses and syntheses each candidate solved ride its IR
    ({!Ir.fresh_pulses}, [Ir.synth_fresh]); one persist step records
    them, winner first, and flushes through {!Engine.flush}, so a store
    that cannot be written does not fail the compile. *)
val compile_flow : Engine.session -> flow -> Circuit.t -> result

(** Compile a circuit through the full EPOC flow ({!compile_flow} over
    the EPOC flow). *)
val compile : Engine.session -> Circuit.t -> result

(** {1 Result summary} *)

(** The CLI exit contract of a result: [("ok", 0)], or
    [("degraded", 3)] when some block degraded to gate-pulse playback. *)
val status : result -> string * int

(** The result summary: the flat fields every reader of a compile
    shares — [request_id], [flow] (the caller's flow name), [device],
    [mode], [status] and [code] ({!status}), [latency_ns], [esp],
    [compile_s], [pulses], [degraded_blocks], [retries] and the cache
    traffic ([cache_hits], [cache_near_hits], [cache_misses],
    [synth_cache_hits], [synth_cache_misses]).  [epoc report --json],
    serve responses, the daemon's flight recorder and
    [BENCH_pipeline.json] rows each add their own fields to it. *)
val summary : flow:string -> result -> (string * Epoc_obs.Json.t) list
