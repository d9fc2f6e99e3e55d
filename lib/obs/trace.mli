(** Per-stage tracing for the pass pipeline.

    A trace is a sink of timed spans: every pass records its wall-clock
    window and a list of integer stage counters.  Spans nest, tracked by
    an explicit depth.  Candidate compilation traces into private child
    sinks that the driver {!absorb}s after the fan-out, in candidate
    order, under ["candN/"] name prefixes.

    Trace contents are wall-clock measurements and therefore {e not} part
    of the pipeline's determinism guarantee; everything else in a result
    is. *)

(** GC activity within a span, captured only when the sink was created
    with [~gc:true]. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type event = {
  name : string;
  depth : int;  (** nesting depth; 0 = top-level stage *)
  start_s : float;  (** absolute, [Unix.gettimeofday] *)
  stop_s : float;
  counters : (string * int) list;
  gc : gc_delta option;  (** only when the sink captures GC stats *)
}

type t

(** A fresh sink.  [~gc:true] snapshots GC stats around every span. *)
val create : ?gc:bool -> unit -> t

(** A fresh child sink with the parent's capture settings, for fan-outs
    that {!absorb} per-worker traces afterwards. *)
val fork : t -> t

(** Run [f] as a named span; [f] returns the value plus the counters to
    attach.  The span is recorded even when [f] raises. *)
val span_with : t -> string -> (unit -> 'a * (string * int) list) -> 'a

(** {!span_with} without counters. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Splice a child sink's spans under the caller's current nesting level,
    prefixing their names.  Call inside the span that covered the child's
    execution so depths line up. *)
val absorb : t -> prefix:string -> t -> unit

(** Events in chronological start order (parents before children). *)
val events : t -> event list

val duration : event -> float

(** Sum of top-level span durations: the traced share of total wall
    time. *)
val top_level_s : t -> float

(** One aggregated row per stage (["candN/"] prefixes stripped). *)
type agg_row = {
  agg_name : string;
  agg_calls : int;
  agg_wall_s : float;
  agg_gc : gc_delta option;  (** summed over calls, when captured *)
}

(** Per-stage totals, in first-occurrence order. *)
val aggregate : t -> agg_row list

(** Human-readable indented span tree, durations in milliseconds. *)
val pp : Format.formatter -> t -> unit

(** {1 JSON views} *)

(** [{"minor_words", "major_words", "promoted_words",
    "minor_collections", "major_collections"}]. *)
val gc_json : gc_delta -> Json.t

(** {!aggregate} as an array of [{"stage", "calls", "wall_s"}] rows,
    each with a ["gc"] object ({!gc_json}) when captured. *)
val stages_json : t -> Json.t

(** {!aggregate} as one object mapping each stage to its ["wall_s"]. *)
val stage_walls_json : t -> Json.t

(** [{"top_level_s", "events"}]: each event's name, depth, start time
    relative to the first span, wall time, counters and, when
    captured, GC delta.  An empty trace still has the full shape, with
    an explicit empty event list. *)
val to_json : t -> Json.t

(** The span tree as Chrome trace-event JSON (chrome://tracing,
    Perfetto): driver spans on thread 0, each candidate on its own
    thread, counters and GC deltas as event args. *)
val to_chrome_json : t -> Json.t
