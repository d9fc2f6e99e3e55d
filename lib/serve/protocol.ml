(* The `epoc serve` wire protocol: JSON Lines over a Unix socket.

   Each request is one JSON object on one line; each response is one
   JSON object on one line.  Requests are either compile jobs —

     {"circuit": "bench:bb84" | "<OPENQASM source>",
      "flow": "epoc"|"gate"|"accqoc"|"paqoc",   (optional, default epoc)
      "mode": "estimate"|"grape",               (optional, default estimate)
      "device": "grid3x3" | "/path/dev.json",   (optional; resolved against
                                                 the engine's device registry,
                                                 default the daemon's --device)
      "deadline_s": 5.0,                        (optional)
      "priority": 2}                            (optional, default 0)

   — or commands: {"cmd": "metrics"} (JSON registry scrape),
   {"cmd": "prometheus"} (text exposition, embedded as a string field),
   {"cmd": "recent"} (flight-recorder summaries, newest first) and
   {"cmd": "trace", "id": "r12"} (the captured Chrome trace of one slow
   request).  Responses carry the job id, a status mirroring the CLI
   exit contract (ok=0, degraded=3, error=1), and either the schedule +
   per-run metrics or an error message.  A success line is the job id,
   the result summary (Epoc.Pipeline.summary: request id, flow, device,
   mode, status, code, latency, ESP, compile time, pulses, resilience
   and cache counts), the serve bookkeeping, and the stage breakdown,
   schedule and per-run registry:

     {"jid": 1, "request_id": "r1", "flow": "epoc", "device": "default",
      "mode": "estimate", "status": "ok", "code": 0, "latency_ns": 37.5,
      ..., "queue_wait_s": 0.004, "worker": 0, "stages": {...},
      "schedule": {...}, "metrics": {...}}
     {"jid": 2, "status": "error", "code": 1, "error": "..."}

   Unreadable request lines get "parse: <detail>" errors where the
   detail carries the byte offset the JSON parser stopped at.

   This module is pure data: parsing, validation and response printing.
   The socket loop lives in server.ml. *)

module J = Epoc_obs.Json
module M = Epoc_obs.Metrics
module Config = Epoc.Config
module Schedule = Epoc_pulse.Schedule

type job = {
  circuit : string;  (* bench:<name> or inline OPENQASM source *)
  flow : string;  (* epoc | gate | accqoc | paqoc *)
  mode : Config.qoc_mode;
  device : string option;
      (* zoo name or device-file path; resolved against the engine's
         registry at pickup, [None] keeps the daemon's default *)
  deadline_s : float option;
  priority : int;  (* higher runs first; ties in arrival order *)
}

type request =
  | Compile of job
  | Metrics
  | Prometheus
  | Recent
  | TraceOf of string

(* Parse one request line.  Unknown fields are ignored (forward
   compatibility); unknown values of known fields are errors.
   Malformed JSON yields "parse: <detail>" where the detail carries the
   byte offset the parser stopped at (lib/obs Json errors always do). *)
let parse_request (line : string) : (request, string) result =
  match J.parse line with
  | Error m -> Error (Printf.sprintf "parse: %s" m)
  | Ok json -> (
      match J.member "cmd" json with
      | Some (J.Str "metrics") -> Ok Metrics
      | Some (J.Str "prometheus") -> Ok Prometheus
      | Some (J.Str "recent") -> Ok Recent
      | Some (J.Str "trace") -> (
          match Option.bind (J.member "id" json) J.to_str with
          | Some id -> Ok (TraceOf id)
          | None -> Error "trace needs \"id\" (string request id)")
      | Some (J.Str other) -> Error (Printf.sprintf "unknown cmd %S" other)
      | Some _ -> Error "cmd must be a string"
      | None -> (
          match Option.bind (J.member "circuit" json) J.to_str with
          | None -> Error "missing \"circuit\" (string)"
          | Some circuit -> (
              let flow =
                match Option.bind (J.member "flow" json) J.to_str with
                | None -> Ok "epoc"
                | Some f when List.mem_assoc f Epoc.Baselines.flows -> Ok f
                | Some f -> Error (Printf.sprintf "unknown flow %S" f)
              in
              let mode =
                match Option.bind (J.member "mode" json) J.to_str with
                | None | Some "estimate" -> Ok Config.Estimate
                | Some "grape" -> Ok Config.Grape
                | Some m -> Error (Printf.sprintf "unknown mode %S" m)
              in
              let device =
                match J.member "device" json with
                | None | Some J.Null -> Ok None
                | Some (J.Str d) -> Ok (Some d)
                | Some _ -> Error "device must be a string"
              in
              let deadline_s =
                Option.bind (J.member "deadline_s" json) J.to_num
              in
              let priority =
                Option.value ~default:0
                  (Option.bind (J.member "priority" json) J.to_int)
              in
              match (flow, mode, device) with
              | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
              | Ok flow, Ok mode, Ok device ->
                  if deadline_s <> None && Option.get deadline_s <= 0.0 then
                    Error "deadline_s must be positive"
                  else
                    Ok
                      (Compile
                         { circuit; flow; mode; device; deadline_s; priority })
              )))

(* --- responses ------------------------------------------------------------ *)

let schedule_json (s : Schedule.t) =
  J.Obj
    [
      ("n", J.of_int s.Schedule.n);
      ("latency_ns", J.Num s.Schedule.latency);
      ( "instructions",
        J.Arr
          (List.map
             (fun (p : Schedule.placed) ->
               J.Obj
                 [
                   ( "qubits",
                     J.Arr (List.map J.of_int p.Schedule.instruction.Schedule.qubits)
                   );
                   ("start", J.Num p.Schedule.start);
                   ("duration", J.Num p.Schedule.instruction.Schedule.duration);
                   ("fidelity", J.Num p.Schedule.instruction.Schedule.fidelity);
                   ("label", J.Str p.Schedule.instruction.Schedule.label);
                 ])
             s.Schedule.placed) );
    ]

(* Serve bookkeeping attached to both success and error responses:
   where the job waited, who ran it, and whether it ran during the
   shutdown drain.  [drained] is emitted only when true so steady-state
   response lines stay unchanged. *)
let serve_fields ?queue_wait_s ?worker ?(drained = false) () =
  (match queue_wait_s with
  | Some w -> [ ("queue_wait_s", J.Num w) ]
  | None -> [])
  @ (match worker with Some w -> [ ("worker", J.of_int w) ] | None -> [])
  @ if drained then [ ("drained", J.Bool true) ] else []

(* Success line: the job id, the result summary (which carries the
   job's status and code), the serve bookkeeping, then the stage
   breakdown, the schedule and the per-run registry. *)
let result_response ~jid ?queue_wait_s ?worker ?drained ~summary
    (r : Epoc.Pipeline.result) =
  J.Obj
    ((("jid", J.of_int jid) :: summary)
    @ serve_fields ?queue_wait_s ?worker ?drained ()
    @ [
        ("stages", Epoc_obs.Trace.stage_walls_json r.Epoc.Pipeline.trace);
        ("schedule", schedule_json r.Epoc.Pipeline.schedule);
        ("metrics", M.to_json r.Epoc.Pipeline.metrics);
      ])

let error_response ~jid ?request_id ?queue_wait_s ?worker ?drained msg =
  J.Obj
    ([
       ("jid", J.of_int jid);
       ("status", J.Str "error");
       ("code", J.of_int 1);
     ]
    @ (match request_id with
      | Some id -> [ ("request_id", J.Str id) ]
      | None -> [])
    @ serve_fields ?queue_wait_s ?worker ?drained ()
    @ [ ("error", J.Str msg) ])

(* Scrape payload for {"cmd":"metrics"}: the engine registry (pool
   traffic, solver throughput, serve counters) next to the aggregate of
   completed jobs' per-run registries. *)
let metrics_response ~jid ~engine ~runs =
  J.Obj
    [
      ("jid", J.of_int jid);
      ("status", J.Str "ok");
      ("code", J.of_int 0);
      ("engine", M.to_json engine);
      ("runs", M.to_json runs);
    ]

(* Scrape payload for {"cmd":"prometheus"}: one text-exposition document
   covering the engine registry (prefix epoc_) and the aggregate of
   completed jobs' per-run registries (prefix epoc_run_), embedded as a
   JSON string so the response stays one JSONL line. *)
let prometheus_response ~jid ~engine ~runs =
  let text =
    M.to_prometheus ~prefix:"epoc_" engine
    ^ M.to_prometheus ~prefix:"epoc_run_" runs
  in
  J.Obj
    [
      ("jid", J.of_int jid);
      ("status", J.Str "ok");
      ("code", J.of_int 0);
      ("prometheus", J.Str text);
    ]

(* Payload for {"cmd":"recent"}: flight-recorder summaries, newest
   first, plus ring occupancy. *)
let recent_response ~jid ~(flight : Epoc_obs.Flight.t) =
  J.Obj
    [
      ("jid", J.of_int jid);
      ("status", J.Str "ok");
      ("code", J.of_int 0);
      ("recorded", J.of_int (Epoc_obs.Flight.recorded flight));
      ("capacity", J.of_int (Epoc_obs.Flight.capacity flight));
      ("recent", Epoc_obs.Flight.to_json flight);
    ]

(* Payload for {"cmd":"trace","id":...}: the captured Chrome trace of
   one slow request, embedded as the recorder holds it. *)
let trace_response ~jid ~id ~(flight : Epoc_obs.Flight.t) =
  match Epoc_obs.Flight.find flight id with
  | None ->
      error_response ~jid
        (Printf.sprintf "unknown request id %S (flight recorder holds %d)" id
           (Epoc_obs.Flight.length flight))
  | Some e -> (
      match e.Epoc_obs.Flight.f_trace with
      | None ->
          error_response ~jid
            (Printf.sprintf
               "no trace captured for %S (%.3fs, below the slow threshold)" id
               e.Epoc_obs.Flight.f_wall_s)
      | Some trace ->
          J.Obj
            [
              ("jid", J.of_int jid);
              ("status", J.Str "ok");
              ("code", J.of_int 0);
              ("id", J.Str id);
              ("wall_s", J.Num e.Epoc_obs.Flight.f_wall_s);
              ("trace", trace);
            ])

(* One response line: compact JSON, newline-terminated, ready to write. *)
let to_line json = J.to_string json ^ "\n"
