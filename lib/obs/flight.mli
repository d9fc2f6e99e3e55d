(** Flight recorder: a bounded, mutex-guarded ring buffer of the last N
    completed requests, with automatic trace capture for slow ones.

    The serve daemon owns one and records every completed job's result
    summary into it.  Like the engine metrics registry it sits
    {e outside} the pipeline's determinism contract (recording order
    under concurrency is arbitrary); per-run metric registries never
    flow through it. *)

type entry = {
  f_id : string;  (** request id; unique per engine *)
  f_wall_s : float;
  f_slow : bool;  (** exceeded the slow threshold *)
  f_payload : Json.t;  (** caller-defined request summary *)
  f_trace : Json.t option;  (** trace document, captured only when slow *)
}

type t

(** [create ()] builds a recorder holding the last [capacity] (default
    64) entries.  [slow_s] is the capture threshold: a request whose
    wall clock meets it gets its trace thunk forced and stored; without
    it no traces are ever captured.  Raises [Invalid_argument] when
    [capacity <= 0]. *)
val create : ?capacity:int -> ?slow_s:float -> unit -> t

val capacity : t -> int
val slow_s : t -> float option

(** [record t ~id ~wall_s ?trace payload] appends one completed
    request, evicting the oldest entry once the buffer is full.
    [trace] builds the request's full trace document; it is only forced
    when [wall_s] meets the slow threshold, so fast requests pay nothing
    beyond the summary. *)
val record :
  t -> id:string -> wall_s:float -> ?trace:(unit -> Json.t) -> Json.t -> unit

(** Total requests ever recorded (monotone; exceeds {!length} once the
    ring has wrapped). *)
val recorded : t -> int

(** Entries newest-first. *)
val recent : t -> entry list

(** Entries currently held (at most {!capacity}). *)
val length : t -> int

(** Most recent entry with this id. *)
val find : t -> string -> entry option

(** One entry as JSON: [{"id", "wall_s", "slow", "trace_captured",
    "summary"}].  The trace document itself is not embedded — fetch it
    via {!find}. *)
val entry_json : entry -> Json.t

(** All held entries, newest-first, as a JSON array of {!entry_json}. *)
val to_json : t -> Json.t
