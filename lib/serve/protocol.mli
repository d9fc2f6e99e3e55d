(** The [epoc serve] wire protocol: JSON Lines over a Unix socket.

    Requests (one JSON object per line):
    - compile job: [{"circuit": "bench:bb84" | "<OPENQASM source>",
      "flow": "epoc"|"gate"|"accqoc"|"paqoc", "mode":
      "estimate"|"grape", "device": "grid3x3"|"/path/dev.json",
      "deadline_s": 5.0, "priority": 2}] — only [circuit] is
      required.
    - commands: [{"cmd": "metrics"}] (JSON registry scrape),
      [{"cmd": "prometheus"}] (text exposition as a string field),
      [{"cmd": "recent"}] (flight-recorder summaries) and
      [{"cmd": "trace", "id": "r12"}] (captured Chrome trace of one
      slow request).

    Responses mirror the CLI exit contract per job: [status]
    "ok"/"degraded"/"error" with [code] 0/3/1.  A success carries the
    result summary ({!Epoc.Pipeline.summary}: request id, flow, device,
    mode, status, code, latency, ESP, compile time, pulses, resilience
    and cache counts), the schedule, the per-run metrics registry and
    serve bookkeeping (queue wait, worker id, drained flag).  Unreadable
    lines get ["parse: <detail>"] errors whose detail carries the
    byte offset the JSON parser stopped at.  This module is pure
    data; the socket loop lives in {!Server}. *)

module J = Epoc_obs.Json
module M = Epoc_obs.Metrics
module Config = Epoc.Config
module Schedule = Epoc_pulse.Schedule

type job = {
  circuit : string;  (** [bench:<name>] or inline OPENQASM source *)
  flow : string;  (** epoc | gate | accqoc | paqoc *)
  mode : Config.qoc_mode;
  device : string option;
      (** zoo name or device-file path, resolved against the engine's
          registry at pickup; [None] keeps the daemon's default *)
  deadline_s : float option;
      (** per-request compile deadline, bounds this job during drain too *)
  priority : int;  (** higher runs first; ties in arrival order *)
}

type request =
  | Compile of job
  | Metrics
  | Prometheus
  | Recent
  | TraceOf of string  (** [{"cmd":"trace","id":...}] *)

(** Parse one request line.  Unknown fields are ignored; unknown values
    of known fields are errors; malformed JSON yields
    ["parse: <detail at byte offset>"]. *)
val parse_request : string -> (request, string) result

val schedule_json : Schedule.t -> J.t

(** Success line: the job id, the result's [summary]
    ({!Epoc.Pipeline.summary}, which carries status and code), serve
    bookkeeping ([queue_wait_s], [worker], [drained] — emitted only
    when supplied), the per-stage wall-clock breakdown under [stages],
    the schedule and the per-run registry. *)
val result_response :
  jid:int ->
  ?queue_wait_s:float ->
  ?worker:int ->
  ?drained:bool ->
  summary:(string * J.t) list ->
  Epoc.Pipeline.result ->
  J.t

val error_response :
  jid:int ->
  ?request_id:string ->
  ?queue_wait_s:float ->
  ?worker:int ->
  ?drained:bool ->
  string ->
  J.t

(** Scrape payload for [{"cmd":"metrics"}]: engine registry and the
    aggregate of completed jobs' per-run registries. *)
val metrics_response : jid:int -> engine:M.t -> runs:M.t -> J.t

(** Scrape payload for [{"cmd":"prometheus"}]: one text-exposition
    document — engine registry under [epoc_*], completed-runs
    aggregate under [epoc_run_*] — embedded as a string field so the
    response stays one JSONL line. *)
val prometheus_response : jid:int -> engine:M.t -> runs:M.t -> J.t

(** Payload for [{"cmd":"recent"}]: flight-recorder summaries, newest
    first, with ring occupancy. *)
val recent_response : jid:int -> flight:Epoc_obs.Flight.t -> J.t

(** Payload for [{"cmd":"trace","id":...}]: the captured Chrome trace
    of one slow request (an error when the id is unknown or the request
    was below the slow threshold). *)
val trace_response : jid:int -> id:string -> flight:Epoc_obs.Flight.t -> J.t

(** One response line: compact JSON, newline-terminated. *)
val to_line : J.t -> string
