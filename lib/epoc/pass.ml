(* The pass manager: a pipeline is a declarative list of named passes run
   in order over an [Ir.t], every pass wrapped in a [Trace] span that
   records its wall-clock window and stage counters.

   A pass sees a [ctx]: a flattened view of one [Engine.session] — the
   per-run values (config, library handle, trace sink, per-run metrics,
   budget, fault spec) next to views of the owning engine's shared state
   (pool, persistent store, hardware memo, engine registry).  Passes
   must obey the pipeline's determinism contract: identical output for
   any pool size (see lib/epoc/pipeline.ml). *)

open Epoc_parallel
open Epoc_pulse
open Epoc_qoc
module Metrics = Epoc_obs.Metrics
module Trace = Epoc_obs.Trace

type ctx = {
  config : Config.t;
  request_id : string;
      (* stable identity of the request this run serves; every span,
         metric, retry and degradation of the run is attributable to it *)
  pool : Pool.t; (* engine-owned *)
  library : Library.t; (* session handle; forked per candidate *)
  cache : Epoc_cache.Store.t option; (* engine-owned persistent pulse store *)
  synth : Epoc_cache.Synth_store.t option;
      (* engine-owned persistent synthesis store; consulted before
         QSearch, recorded into at pipeline end *)
  trace : Trace.t;
  metrics : Metrics.t; (* per-run registry (lib/obs), deterministic values *)
  process : Metrics.t;
      (* the engine registry: wall-clock gauges and other infrastructure
         values that must stay out of the per-run registry *)
  hardware_block : int list -> Hardware.t;
      (* the model of one block on its global qubits: the configured
         device's coupling subgraph, or the default chain *)
  budget : Epoc_budget.t;
      (* run-level deadline from [config.total_deadline]; block solves
         derive per-attempt children capped by it *)
  fault : Epoc_fault.spec option;
      (* deterministic fault injection from [config.fault]; off = None *)
}

(* The ctx of a session: per-run values from the session, shared state
   from its engine. *)
let of_session (s : Engine.session) =
  let engine = Engine.session_engine s in
  let config = Engine.session_config s in
  {
    config;
    request_id = Engine.session_request_id s;
    pool = Engine.pool engine;
    library = Engine.session_library s;
    cache = Engine.cache engine;
    synth = Engine.synth engine;
    trace = Engine.session_trace s;
    metrics = Engine.session_metrics s;
    process = Engine.metrics engine;
    hardware_block = (fun qs -> Engine.hardware_for_block engine config qs);
    budget = Engine.session_budget s;
    fault = Engine.session_fault s;
  }

(* A ctx with a private library, trace and metrics, for candidate
   compilation: the caller absorbs all three after the fan-out. *)
let fork_ctx ctx =
  let library = Library.fork ctx.library and trace = Trace.fork ctx.trace in
  { ctx with library; trace; metrics = Metrics.fork ctx.metrics }

module type PASS = sig
  val name : string

  val run : ctx -> Ir.t -> Ir.t

  val counters : ctx -> Ir.t -> (string * int) list
  (** Stage counters reported into the trace, computed on the pass output. *)
end

type t = (module PASS)

let make ?(counters = fun _ _ -> []) name run : t =
  (module struct
    let name = name
    let run = run
    let counters = counters
  end)

let name (p : t) =
  let (module P) = p in
  P.name

(* Run one pass inside a trace span. *)
let run_one ctx (p : t) ir =
  let (module P) = p in
  Trace.span_with ctx.trace P.name (fun () ->
      let ir = P.run ctx ir in
      (ir, P.counters ctx ir))

let run_list ctx (passes : t list) ir =
  List.fold_left (fun ir p -> run_one ctx p ir) ir passes
