(** Chrome trace-event exporter (the JSON object format understood by
    chrome://tracing, Perfetto and speedscope).

    Callers hand over complete spans and get back the standard
    envelope: [{"traceEvents": [...], "displayTimeUnit": "ms"}] where
    every span is a [ph:"X"] (complete) event with microsecond
    timestamps, and process/thread labels ride along as [ph:"M"]
    metadata events. *)

type span = {
  name : string;
  cat : string;
  ts_us : float;  (** start, microseconds from trace origin *)
  dur_us : float;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

(** [thread_names] labels [(pid, tid)] rows in the viewer's track
    list. *)
val to_json :
  ?process_name:string ->
  ?thread_names:(int * int * string) list ->
  span list ->
  Json.t
