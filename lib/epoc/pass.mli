(** The pass manager: a pipeline is a declarative list of named passes
    run in order over an {!Ir.t}, every pass wrapped in an
    {!Epoc_obs.Trace} span that records its wall-clock window and stage
    counters.

    A pass must obey the pipeline's determinism contract: identical
    output for any pool size (see lib/epoc/pipeline.ml). *)

open Epoc_parallel
open Epoc_pulse
open Epoc_qoc
module Metrics = Epoc_obs.Metrics

(** The flattened view of one {!Engine.session} a pass sees: per-run
    values (config, library handle, trace, per-run metrics, budget,
    fault spec) next to views of the owning engine's shared state
    (pool, persistent store, hardware memo, engine registry).  Concrete
    because the driver builds per-candidate variants ({!fork_ctx}). *)
type ctx = {
  config : Config.t;
  request_id : string;
      (** stable identity of the request this run serves (from
          {!Engine.session_request_id}); every span, metric, retry and
          degradation of the run is attributable to it *)
  pool : Pool.t;  (** engine-owned *)
  library : Library.t;  (** session handle; forked per candidate *)
  cache : Epoc_cache.Store.t option;
      (** engine-owned persistent pulse store, when enabled *)
  synth : Epoc_cache.Synth_store.t option;
      (** engine-owned persistent synthesis store, when enabled;
          consulted before QSearch runs, recorded into at pipeline
          end *)
  trace : Epoc_obs.Trace.t;
  metrics : Metrics.t;
      (** per-run registry (lib/obs), deterministic values *)
  process : Metrics.t;
      (** the engine registry: wall-clock gauges and other
          infrastructure values that must stay out of the per-run
          registry *)
  hardware_block : int list -> Hardware.t;
      (** the model of one block on its global qubits
          ({!Engine.hardware_for_block}): the configured device's
          coupling subgraph, or the default chain *)
  budget : Epoc_budget.t;
      (** run-level deadline from [Config.total_deadline] (unlimited
          when unset), started when the session was opened; block
          solves derive per-attempt children capped by it *)
  fault : Epoc_fault.spec option;
      (** deterministic fault injection from [Config.fault] *)
}

(** The ctx of a session: per-run values from the session, shared state
    from its engine. *)
val of_session : Engine.session -> ctx

(** The ctx every candidate compiles on, one or several: private forks
    of the library, trace and metrics, which the driver absorbs after
    the fan-out (libraries winner first, then in candidate order). *)
val fork_ctx : ctx -> ctx

module type PASS = sig
  val name : string
  val run : ctx -> Ir.t -> Ir.t

  val counters : ctx -> Ir.t -> (string * int) list
  (** Stage counters reported into the trace, computed on the pass
      output. *)
end

type t = (module PASS)

(** Build a pass from a name and a transform; [counters] defaults to
    none. *)
val make :
  ?counters:(ctx -> Ir.t -> (string * int) list) ->
  string ->
  (ctx -> Ir.t -> Ir.t) ->
  t

val name : t -> string

(** Run one pass inside a trace span. *)
val run_one : ctx -> t -> Ir.t -> Ir.t

val run_list : ctx -> t list -> Ir.t -> Ir.t
