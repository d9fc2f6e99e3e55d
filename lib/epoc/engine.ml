(* The compilation engine: one long-lived value owning every piece of
   state that should stay hot across compile requests —

     - the domain pool (and its traffic counters),
     - the persistent pulse store (opened once, shared by all requests),
     - the persistent synthesis store (same lifecycle),
     - the shared pulse library,
     - the hardware-model memo (replacing the old process-wide
       [Hardware.shared] table),
     - the engine metrics registry (pool traffic, solver throughput —
       replacing the old [Metrics.global]).

   Everything per-run — config, trace sink, per-run metrics registry,
   compute budget, fault spec, the session library handle — lives in a
   [session] created from the engine.  The compile path reads shared
   state only through its session, so there is zero process-global
   mutation: two engines in one process are fully isolated, and many
   concurrent sessions on one engine share hot state safely (every
   engine-owned structure is internally synchronized — see each
   module's header).

   One-shot callers build an ephemeral engine per call, which
   reproduces the old per-process behaviour exactly; the [epoc serve]
   daemon keeps one engine for its whole lifetime, which is the
   point. *)

open Epoc_parallel
open Epoc_pulse
open Epoc_qoc
module Metrics = Epoc_obs.Metrics
module Store = Epoc_cache.Store
module Synth_store = Epoc_cache.Synth_store

type t = {
  pool : Pool.t;
  library : Library.t; (* shared across sessions; thread-safe *)
  cache : Store.t option; (* persistent pulse store, opened once *)
  synth : Synth_store.t option; (* persistent synthesis store, opened once *)
  hardware : Hardware.Memo.memo;
  devices : Epoc_device.Device.Registry.registry;
      (* device zoo: builtins plus loaded device files; name -> device *)
  metrics : Metrics.t; (* engine registry: infrastructure, not per-run *)
  next_rid : int Atomic.t; (* request-id counter; unique per engine *)
}

(* [config] seeds the engine-owned resources: the store directories and
   the phase-matching convention of the library.  The config
   itself is *not* stored — it is a per-session value, so one engine can
   serve requests compiled under different configs (modes, deadlines). *)
let create ?(config = Config.default) ?domains ?pool () =
  let metrics = Metrics.create () in
  let pool =
    match pool with Some p -> p | None -> Pool.create ?domains ~metrics ()
  in
  let library =
    Library.create ~match_global_phase:config.Config.match_global_phase ()
  in
  let cache = Option.map Store.open_dir config.Config.cache_dir in
  let synth = Option.map Synth_store.open_dir config.Config.synth_cache_dir in
  {
    pool;
    library;
    cache;
    synth;
    hardware = Hardware.Memo.create ();
    devices = Epoc_device.Device.Registry.create ();
    metrics;
    next_rid = Atomic.make 1;
  }

let pool t = t.pool
let library t = t.library
let cache t = t.cache
let synth t = t.synth
let devices t = t.devices
let metrics t = t.metrics

(* The next request id on this engine: "r1", "r2", ...  Ids are unique
   per engine and stable for the lifetime of a request — they thread
   through the session into every pass ctx and onto the result and (in
   the serve daemon) the response line and the flight-recorder entry. *)
let next_request_id t =
  Printf.sprintf "r%d" (Atomic.fetch_and_add t.next_rid 1)

(* The model of one partition block, memoized on the engine: the one
   source of block models.  Its context tag scopes pulse reuse. *)
let hardware_for_block t (config : Config.t) qubits =
  Hardware.Memo.get t.hardware ?device:config.Config.device ~dt:config.Config.dt
    ~t_coherence:config.Config.t_coherence qubits

module Cache_log = (val Logs.src_log Store.log_src : Logs.LOG)

(* Flush both persistent stores once (no-op without stores, or with
   nothing pending).  Every compile flushes at its end; the serve daemon
   also calls this on shutdown so a drained process leaves nothing
   unpersisted.  A failed write costs its records' persistence, not the
   compile or the daemon; its count depends on the file system, not on
   the run, so it goes to the engine registry. *)
let flush t =
  let guarded what flush store =
    let failed reason =
      Metrics.incr t.metrics "cache.flush_errors";
      Cache_log.warn (fun m ->
          m "%s flush failed, its records stay queued: %s" what reason)
    in
    try flush store with
    | Unix.Unix_error (err, fn, arg) ->
        failed (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message err))
    | Sys_error reason -> failed reason
  in
  Option.iter (guarded "pulse store" Store.flush) t.cache;
  Option.iter (guarded "synthesis store" Synth_store.flush) t.synth

(* --- sessions ------------------------------------------------------------ *)

(* Everything request-scoped.  [s_library] is the engine's shared
   library by default; passing a private one isolates the request (the
   serve daemon does this so each job resolves exactly like a one-shot
   run, with cross-request reuse flowing through the engine store) and
   the caller decides whether to absorb it back.  Either is replaced by
   a fresh private library when its convention disagrees with the
   session config ([library_for]).  The pool and stores are always the
   engine's, read through [s_engine]. *)
type session = {
  s_engine : t;
  s_config : Config.t;
  s_name : string;
  s_request_id : string; (* stable identity of this request *)
  s_library : Library.t;
  s_explicit_library : Library.t option; (* as passed by the caller *)
  s_trace : Epoc_obs.Trace.t;
  s_metrics : Metrics.t; (* per-run registry: deterministic values only *)
  s_budget : Epoc_budget.t;
  s_fault : Epoc_fault.spec option;
}

(* The session library for [config]: the caller's, else the engine's,
   as long as its matching convention agrees with [config] — a
   phase-sensitive request (AccQOC/PAQOC configs) against a
   phase-invariant library would otherwise alias distinct unitaries.
   On disagreement the session gets a fresh private library.  Device
   runs share the engine's too: their entries carry the block's
   hardware context, so they never answer a probe on another model. *)
let library_for t (config : Config.t) explicit =
  let phase = config.Config.match_global_phase in
  match Option.value explicit ~default:t.library with
  | l when Library.match_global_phase l = phase -> l
  | _ -> Library.create ~match_global_phase:phase ()

let session ?(config = Config.default) ?request_id ?library ?trace ?metrics
    ~name t =
  {
    s_engine = t;
    s_config = config;
    s_name = name;
    s_request_id =
      (match request_id with Some id -> id | None -> next_request_id t);
    s_library = library_for t config library;
    s_explicit_library = library;
    s_trace =
      (match trace with Some tr -> tr | None -> Epoc_obs.Trace.create ());
    s_metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    s_budget =
      Epoc_budget.sub ?seconds:config.Config.total_deadline
        Epoc_budget.unlimited;
    s_fault = config.Config.fault;
  }

(* The same session under a different config: identity (engine, name,
   request id) and sinks carry over; the library, budget and fault spec
   re-derive from the new config (the caller's library is kept when its
   convention agrees with it).  The baselines use this to apply their
   config transforms to a caller's session. *)
let with_config config s =
  {
    s with
    s_config = config;
    s_library = library_for s.s_engine config s.s_explicit_library;
    s_budget =
      Epoc_budget.sub ?seconds:config.Config.total_deadline
        Epoc_budget.unlimited;
    s_fault = config.Config.fault;
  }

let session_engine s = s.s_engine
let session_config s = s.s_config
let session_name s = s.s_name
let session_request_id s = s.s_request_id
let session_library s = s.s_library
let session_trace s = s.s_trace
let session_metrics s = s.s_metrics
let session_budget s = s.s_budget
let session_fault s = s.s_fault
