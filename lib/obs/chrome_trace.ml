(* Chrome trace-event exporter (the JSON object format understood by
   chrome://tracing, Perfetto and speedscope).

   Callers hand over complete spans — name, start, duration, process and
   thread ids, plus arbitrary JSON args — and get back the standard
   envelope: {"traceEvents": [...], "displayTimeUnit": "ms"} where every
   span is a ph:"X" (complete) event with microsecond timestamps, and
   process/thread labels ride along as ph:"M" metadata events. *)

type span = {
  name : string;
  cat : string;
  ts_us : float; (* start, microseconds from trace origin *)
  dur_us : float;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

let metadata_event ~pid ~tid ~meta ~label =
  Json.Obj
    [
      ("name", Json.Str meta);
      ("ph", Json.Str "M");
      ("pid", Json.of_int pid);
      ("tid", Json.of_int tid);
      ("args", Json.Obj [ ("name", Json.Str label) ]);
    ]

let span_event (s : span) =
  Json.Obj
    ([
       ("name", Json.Str s.name);
       ("cat", Json.Str s.cat);
       ("ph", Json.Str "X");
       ("ts", Json.Num s.ts_us);
       ("dur", Json.Num s.dur_us);
       ("pid", Json.of_int s.pid);
       ("tid", Json.of_int s.tid);
     ]
    @ match s.args with [] -> [] | args -> [ ("args", Json.Obj args) ])

(* [thread_names] labels (pid, tid) rows in the viewer's track list. *)
let to_json ?(process_name = "epoc") ?(thread_names = []) (spans : span list) =
  let pids =
    List.sort_uniq compare (List.map (fun (s : span) -> s.pid) spans)
  in
  let meta =
    List.map
      (fun pid -> metadata_event ~pid ~tid:0 ~meta:"process_name" ~label:process_name)
      (match pids with [] -> [ 1 ] | l -> l)
    @ List.map
        (fun (pid, tid, label) ->
          metadata_event ~pid ~tid ~meta:"thread_name" ~label)
        thread_names
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (meta @ List.map span_event spans));
      ("displayTimeUnit", Json.Str "ms");
    ]
