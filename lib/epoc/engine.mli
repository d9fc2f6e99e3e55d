(** The compilation engine: one long-lived value owning every piece of
    state that should stay hot across compile requests — the domain
    pool, the persistent pulse store, the shared pulse library, the
    hardware-model memo and the engine metrics registry.

    Everything per-run lives in a {!session} created from the engine;
    the compile path reads shared state only through its session's
    engine, so there is zero process-global mutation.  Two engines in
    one process are fully isolated, and many concurrent sessions on one
    engine share hot state safely: the library, store, memo, registry
    and pool are all internally synchronized, and the pipeline's
    fork/absorb discipline keeps per-run results bit-identical to solo
    runs for any domain count.

    One-shot callers build an ephemeral engine per call; the
    [epoc serve] daemon keeps one engine for its whole lifetime. *)

open Epoc_parallel
open Epoc_pulse
open Epoc_qoc
module Metrics = Epoc_obs.Metrics

type t

(** [create ()] builds an engine.  [config] seeds the engine-owned
    resources — the store directories ([cache_dir], [synth_cache_dir])
    and the phase-matching convention of the library — but
    is not retained: configs are per-session values, so one engine
    serves requests compiled under different modes and deadlines.
    [domains] sizes the pool unless an explicit [pool] is given; the
    pool constructed here records its traffic into the engine
    registry. *)
val create : ?config:Config.t -> ?domains:int -> ?pool:Pool.t -> unit -> t

val pool : t -> Pool.t

val library : t -> Library.t

val cache : t -> Epoc_cache.Store.t option

(** The persistent synthesis store ({!Epoc_cache.Synth_store}), when one
    is configured: synthesized per-block circuits keyed by block
    fingerprint, consulted before QSearch runs. *)
val synth : t -> Epoc_cache.Synth_store.t option

(** The engine's device zoo ({!Epoc_device.Device.Registry}): the
    bundled builtins plus any device files loaded through it.  The CLI
    and the serve daemon resolve [--device NAME|FILE] / the job
    ["device"] field against this registry. *)
val devices : t -> Epoc_device.Device.Registry.registry

(** The engine registry: pool traffic, solver throughput gauges and
    anything else infrastructure-scoped.  Never holds per-run values —
    those live in each session's registry. *)
val metrics : t -> Metrics.t

(** The next request id on this engine (["r1"], ["r2"], ...).  Ids are
    unique per engine; {!session} draws one automatically when the
    caller does not supply its own. *)
val next_request_id : t -> string

(** Hardware model of one partition block (global qubit indices),
    memoized on the engine: the one source of block models.  The
    device's coupling subgraph on those qubits ({!Hardware.of_device})
    when [config] targets a device, otherwise the default chain over
    the block's local qubits under [config]'s [dt]/[t_coherence].  Its
    [Hardware.context] scopes every pulse-library and pulse-store
    entry solved on it. *)
val hardware_for_block : t -> Config.t -> int list -> Hardware.t

(** Flush both persistent stores once (no-op without stores or with
    nothing pending).  A store whose flush raises [Unix_error] or
    [Sys_error] is named in a warning on ["epoc.cache"], counted in
    [cache.flush_errors] on {!metrics} and keeps its records queued. *)
val flush : t -> unit

(** {1 Sessions} *)

(** A request-scoped compilation context: config, trace sink, per-run
    metrics registry, compute budget, fault spec and the library handle
    the run resolves against. *)
type session

(** [session ~name t] opens a session on [t].  The session's request id
    is drawn from the engine ({!next_request_id}) unless [request_id]
    supplies one; it is the stable identity every trace span, metric
    registry, retry/degradation event and cache outcome of this run is
    attributable to.  The session library is the engine's shared
    library unless [library] supplies a private one (the serve daemon
    isolates each job this way so it resolves exactly like a one-shot
    run, with cross-request reuse flowing through the engine store).
    The session compiles on the engine's pool and stores.  [trace] and
    [metrics] default to fresh sinks; the budget derives from
    [config.total_deadline] and the fault spec from [config.fault]. *)
val session :
  ?config:Config.t ->
  ?request_id:string ->
  ?library:Library.t ->
  ?trace:Epoc_obs.Trace.t ->
  ?metrics:Metrics.t ->
  name:string ->
  t ->
  session

(** The same session under a different config: identity (engine, name,
    request id) and sinks carry over; the library, budget and fault
    spec re-derive from the new config (an explicitly passed library is
    kept when its convention agrees with the new config, and replaced
    by a fresh private one otherwise).  The baselines use this to apply
    their config transforms to a caller's session. *)
val with_config : Config.t -> session -> session

val session_engine : session -> t

val session_config : session -> Config.t

val session_name : session -> string

val session_request_id : session -> string

val session_library : session -> Library.t

val session_trace : session -> Epoc_obs.Trace.t

val session_metrics : session -> Metrics.t

val session_budget : session -> Epoc_budget.t

val session_fault : session -> Epoc_fault.spec option
