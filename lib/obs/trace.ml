(* Per-stage tracing for the pass pipeline.

   A trace is a sink of timed spans: every pass the driver runs (and any
   other region worth measuring) records a [span] with its wall-clock
   window and a list of integer counters (blocks, VUGs, library hits,
   pool jobs, ...).  Spans nest — the driver's candidate fan-out wraps
   the per-candidate stage spans — and nesting is tracked by an explicit
   depth so the trace can be rendered as an indented tree or exported as
   JSON without reconstructing the hierarchy from timestamps.

   Candidate compilation runs on worker domains, so each candidate traces
   into a private child sink that the driver [absorb]s after the fan-out,
   in candidate order, with a "candN/" name prefix.  Timestamps are
   absolute ([Unix.gettimeofday]), so absorbed child spans land inside
   the parent's enclosing span window and the nesting invariant (every
   depth-d span lies within a depth-(d-1) span) holds by construction.
   Trace contents are wall-clock measurements and therefore *not* part of
   the pipeline's determinism guarantee; everything else in a result is.

   Every machine-readable view — the span list, the per-stage rows and
   wall-clock map, Chrome trace events — is a [Json.t], and the GC delta
   and stage aggregate are serialized here once for all of them. *)

(* GC activity within a span: [Gc.quick_stat] deltas, so allocation
   regressions show up next to wall time.  Captured only when the sink
   was created with [~gc:true] — the quick_stat calls are cheap but not
   free, and most runs only need wall clock. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

type event = {
  name : string;
  depth : int; (* nesting depth; 0 = top-level stage *)
  start_s : float; (* absolute, Unix.gettimeofday *)
  stop_s : float;
  counters : (string * int) list;
  gc : gc_delta option; (* only when the sink captures GC stats *)
}

type t = {
  mutable events : event list; (* completion order, newest first *)
  mutable depth : int;
  lock : Mutex.t;
  gc_stats : bool;
}

let create ?(gc = false) () =
  { events = []; depth = 0; lock = Mutex.create (); gc_stats = gc }

(* A fresh child sink with the parent's capture settings, for fan-outs
   that absorb per-worker traces afterwards. *)
let fork t = create ~gc:t.gc_stats ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [Gc.quick_stat]'s minor_words only advances at collection points on
   OCaml 5.0/5.1; [Gc.minor_words ()] also counts allocation since the
   last minor GC, so short spans still see their own allocations. *)
let gc_snapshot () =
  let s = Gc.quick_stat () in
  ( Gc.minor_words (), s.Gc.major_words, s.Gc.promoted_words,
    s.Gc.minor_collections, s.Gc.major_collections )

let gc_delta_since (mw, jw, pw, mc, jc) =
  let mw', jw', pw', mc', jc' = gc_snapshot () in
  {
    minor_words = mw' -. mw;
    major_words = jw' -. jw;
    promoted_words = pw' -. pw;
    minor_collections = mc' - mc;
    major_collections = jc' - jc;
  }

(* Run [f] as a named span; [f] returns the value plus the counters to
   attach.  The span is recorded even when [f] raises (with no counters),
   so a failing stage still shows up in the trace. *)
let span_with t name f =
  let depth = locked t (fun () ->
      let d = t.depth in
      t.depth <- d + 1;
      d)
  in
  let gc0 = if t.gc_stats then Some (gc_snapshot ()) else None in
  let start_s = Unix.gettimeofday () in
  let finish counters =
    let stop_s = Unix.gettimeofday () in
    let gc = Option.map gc_delta_since gc0 in
    locked t (fun () ->
        t.depth <- t.depth - 1;
        t.events <- { name; depth; start_s; stop_s; counters; gc } :: t.events)
  in
  match f () with
  | v, counters ->
      finish counters;
      v
  | exception e ->
      finish [];
      raise e

let span t name f = span_with t name (fun () -> (f (), []))

(* Splice a child sink's spans under the caller's current nesting level,
   prefixing their names.  Call inside the span that covered the child's
   execution so depths line up. *)
let absorb t ~prefix (child : t) =
  let child_events = locked child (fun () -> child.events) in
  locked t (fun () ->
      let d = t.depth in
      let shifted =
        List.map
          (fun e -> { e with name = prefix ^ e.name; depth = e.depth + d })
          child_events
      in
      t.events <- shifted @ t.events)

(* Events in chronological start order (parents before their children). *)
let events t =
  let evs = locked t (fun () -> t.events) in
  List.stable_sort
    (fun a b -> compare (a.start_s, a.depth) (b.start_s, b.depth))
    (List.rev evs)

let duration e = e.stop_s -. e.start_s

(* Sum of top-level span durations: the traced share of total wall time. *)
let top_level_s t =
  List.fold_left
    (fun acc (e : event) -> if e.depth = 0 then acc +. duration e else acc)
    0.0 (events t)

(* Candidate prefix handling: "candN/stage" spans belong to candidate N
   and aggregate under the bare stage name. *)
let cand_index name =
  match String.index_opt name '/' with
  | Some i
    when i > 4
         && String.sub name 0 4 = "cand"
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub name 4 (i - 4)) ->
      Some (int_of_string (String.sub name 4 (i - 4)))
  | _ -> None

(* Stage name with "candN/" prefixes stripped, so parallel candidates
   aggregate into one row per stage. *)
let base_name name =
  match cand_index name with
  | Some _ ->
      let i = String.index name '/' in
      String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

type agg_row = {
  agg_name : string;
  agg_calls : int;
  agg_wall_s : float;
  agg_gc : gc_delta option; (* summed over calls, when captured *)
}

(* Per-stage totals with "candN/" prefixes stripped; insertion order of
   first occurrence is kept for stable output. *)
let aggregate t =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = base_name e.name in
      match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.add tbl key
            { agg_name = key; agg_calls = 1; agg_wall_s = duration e; agg_gc = e.gc }
      | Some row ->
          Hashtbl.replace tbl key
            {
              row with
              agg_calls = row.agg_calls + 1;
              agg_wall_s = row.agg_wall_s +. duration e;
              agg_gc =
                (match (row.agg_gc, e.gc) with
                | Some a, Some b -> Some (gc_add a b)
                | Some a, None | None, Some a -> Some a
                | None, None -> None);
            })
    (events t);
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

let pp_counters ppf counters =
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) counters

let pp_gc ppf = function
  | None -> ()
  | Some g ->
      Format.fprintf ppf " [minor %.1fkw major %.1fkw gc %d/%d]"
        (g.minor_words /. 1e3) (g.major_words /. 1e3) g.minor_collections
        g.major_collections

(* Human-readable indented tree, durations in milliseconds. *)
let pp ppf t =
  let evs = events t in
  match evs with
  | [] -> Format.fprintf ppf "trace: empty@."
  | first :: _ ->
      let t0 = first.start_s in
      Format.fprintf ppf "@[<v>trace (%d spans, %.3f ms traced at top level):@,"
        (List.length evs) (1e3 *. top_level_s t);
      List.iter
        (fun e ->
          Format.fprintf ppf "  %8.3f ms  %s%-24s %8.3f ms%a%a@,"
            (1e3 *. (e.start_s -. t0))
            (String.concat "" (List.init e.depth (fun _ -> "  ")))
            e.name
            (1e3 *. duration e)
            pp_counters e.counters pp_gc e.gc)
        evs;
      Format.fprintf ppf "@]"

(* --- JSON views ---------------------------------------------------------- *)

(* The one serialization of a GC delta and of a span's counters: the
   JSON trace nests them, Chrome trace events carry them flat among
   their args. *)
let gc_fields g =
  [
    ("minor_words", Json.Num g.minor_words);
    ("major_words", Json.Num g.major_words);
    ("promoted_words", Json.Num g.promoted_words);
    ("minor_collections", Json.of_int g.minor_collections);
    ("major_collections", Json.of_int g.major_collections);
  ]

let gc_json g = Json.Obj (gc_fields g)

let counter_fields e = List.map (fun (k, v) -> (k, Json.of_int v)) e.counters

(* One row per stage: {stage, calls, wall_s} plus gc when captured. *)
let stages_json t =
  Json.Arr
    (List.map
       (fun r ->
         Json.Obj
           ([
              ("stage", Json.Str r.agg_name);
              ("calls", Json.of_int r.agg_calls);
              ("wall_s", Json.Num r.agg_wall_s);
            ]
           @ match r.agg_gc with None -> [] | Some g -> [ ("gc", gc_json g) ]))
       (aggregate t))

(* Stage name -> summed wall seconds. *)
let stage_walls_json t =
  Json.Obj
    (List.map (fun r -> (r.agg_name, Json.Num r.agg_wall_s)) (aggregate t))

(* Machine-readable form: start times relative to the first span.  An
   empty trace still emits the full shape with an explicit empty list. *)
let to_json t =
  let evs = events t in
  let t0 = match evs with [] -> 0.0 | e :: _ -> e.start_s in
  Json.Obj
    [
      ("top_level_s", Json.Num (top_level_s t));
      ( "events",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 ([
                    ("name", Json.Str e.name);
                    ("depth", Json.of_int e.depth);
                    ("start_s", Json.Num (e.start_s -. t0));
                    ("wall_s", Json.Num (duration e));
                    ("counters", Json.Obj (counter_fields e));
                  ]
                 @ match e.gc with None -> [] | Some g -> [ ("gc", gc_json g) ]))
             evs) );
    ]

(* --- Chrome trace-event export ------------------------------------------- *)

(* The span tree as Chrome trace-event JSON (chrome://tracing, Perfetto):
   one process, the driver's spans on thread 0 and each candidate's spans
   on their own thread, counters and GC deltas as event args. *)
let to_chrome_json t =
  let evs = events t in
  let t0 = match evs with [] -> 0.0 | e :: _ -> e.start_s in
  let tid_of e = match cand_index e.name with Some i -> i + 1 | None -> 0 in
  let spans =
    List.map
      (fun e ->
        {
          Chrome_trace.name = base_name e.name;
          cat = "epoc";
          ts_us = 1e6 *. (e.start_s -. t0);
          dur_us = 1e6 *. duration e;
          pid = 1;
          tid = tid_of e;
          args =
            counter_fields e
            @ (match e.gc with None -> [] | Some g -> gc_fields g);
        })
      evs
  in
  let tids = List.sort_uniq compare (List.map tid_of evs) in
  let thread_names =
    List.map
      (fun tid ->
        (1, tid, if tid = 0 then "driver" else Printf.sprintf "cand%d" (tid - 1)))
      tids
  in
  Chrome_trace.to_json ~process_name:"epoc" ~thread_names spans
