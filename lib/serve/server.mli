(** The [epoc serve] daemon: one long-lived {!Epoc.Engine} multiplexing
    concurrent compile requests over a Unix socket speaking the
    {!Protocol} JSONL grammar.

    Jobs are admitted in (priority desc, arrival asc) order onto a
    fixed worker-thread set sharing the engine's domain pool; every job
    compiles against a private library (one-shot semantics) with
    cross-request reuse through the engine's persistent store.

    Serve telemetry rides on the engine registry: queue-depth and
    in-flight gauges, admission/rejection counters, per-status request
    counters ([serve.requests{status="..."}]), queue-wait and
    end-to-end latency histograms, and a drained-job counter, scrapeable
    as Prometheus text ([{"cmd":"prometheus"}]).  Each completed compile
    also lands in the daemon's flight recorder with its result summary
    ({!Epoc.Pipeline.summary}), queryable over the socket
    ([{"cmd":"recent"}], [{"cmd":"trace"}]).

    SIGTERM/SIGINT drain queued and in-flight jobs — each bounded by
    its own deadline — flush the store once, emit a final metrics line
    on stdout and remove the socket path.  See DESIGN.md sections 4h
    and 4i. *)

type opts = {
  socket : string;  (** Unix socket path; stale paths are replaced *)
  workers : int;  (** concurrent jobs (clamped to >= 1) *)
  config : Epoc.Config.t;  (** per-job base config; requests override
                               mode and deadline *)
  flight_capacity : int;
      (** how many completed jobs the flight recorder ({!Epoc_obs.Flight})
          retains ([epoc serve --flight]) *)
  slow_trace_s : float option;
      (** slow threshold, seconds: a job whose compile wall clock meets
          it gets its full Chrome trace captured in the flight recorder
          ([epoc serve --slow-trace]; [None] = never capture) *)
}

(** Record a completed job in [flight] as the daemon does: the entry is
    keyed by the result's request id and holds its [summary] next to
    the session [name], a digest of the circuit text and the per-stage
    wall clock ([stages_s]); the Chrome trace is captured only when the
    compile met the recorder's slow threshold. *)
val record_job :
  Epoc_obs.Flight.t ->
  name:string ->
  Epoc_circuit.Circuit.t ->
  summary:(string * Epoc_obs.Json.t) list ->
  Epoc.Pipeline.result ->
  unit

(** Run the daemon until SIGTERM/SIGINT; returns the process exit code.
    [engine] defaults to a fresh one built from [opts.config]. *)
val run : ?engine:Epoc.Engine.t -> opts -> int
