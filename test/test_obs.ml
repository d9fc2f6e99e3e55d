(* Observability tests: the JSON layer, the metrics registry (bucket
   boundaries, instrument semantics, fork/absorb determinism), trace GC
   capture and the Chrome trace-event exporter. *)

open Epoc
module M = Epoc_obs.Metrics
module J = Epoc_obs.Json

(* --- json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Num 1.0);
        ("b", J.Str "x\"y\n\\z");
        ("c", J.Arr [ J.Null; J.Bool true; J.Bool false; J.Num 0.125 ]);
        ("d", J.Obj []);
        ("e", J.Arr []);
        ("f", J.Num 1.6180339887498949);
      ]
  in
  Alcotest.(check bool) "compact round-trips" true
    (J.parse_exn (J.to_string v) = v);
  Alcotest.(check bool) "indented round-trips" true
    (J.parse_exn (J.to_string ~indent:true v) = v);
  (* integral floats print without a fraction *)
  Alcotest.(check string) "int form" "42" (J.to_string (J.of_int 42));
  (* non-finite numbers degrade to null rather than invalid JSON *)
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "inf is null" "null" (J.to_string (J.Num infinity))

let test_json_parse () =
  Alcotest.(check bool) "escapes" true
    (J.parse_exn {|"aA\n\t\\ é"|} = J.Str "aA\n\t\\ \xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (J.parse_exn {|"😀"|} = J.Str "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "numbers" true
    (J.parse_exn "[-1.5e3, 0, 7]" = J.Arr [ J.Num (-1500.0); J.Num 0.0; J.Num 7.0 ]);
  (match J.parse "{\"a\": 1," with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted");
  (match J.parse "[1] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (* accessors *)
  let v = J.parse_exn {|{"x": {"y": [1, 2, 3]}}|} in
  let ys =
    Option.bind (J.member "x" v) (J.member "y") |> Fun.flip Option.bind J.to_list
  in
  Alcotest.(check int) "nested member" 3 (List.length (Option.get ys))

(* --- histogram buckets --------------------------------------------------- *)

let test_bucket_boundaries () =
  let check v expected =
    Alcotest.(check int) (Printf.sprintf "bucket of %g" v) expected (M.bucket_index v)
  in
  check 0.0 0;
  check (-3.0) 0;
  check Float.nan 0;
  (* [0.5, 1) is the bucket just below 1.0 *)
  check 0.5 31;
  check 0.75 31;
  check 1.0 32;
  check 1.5 32;
  check 1.9999999 32;
  check 2.0 33;
  check 4.0 34;
  (* extremes clamp into the first/last finite buckets *)
  check 1e-300 1;
  check 1e300 (M.bucket_count - 1);
  (* every positive value lands in a bucket whose bounds contain it *)
  List.iter
    (fun v ->
      let i = M.bucket_index v in
      let lo, hi = M.bucket_bounds i in
      Alcotest.(check bool)
        (Printf.sprintf "%g in [%g, %g)" v lo hi)
        true
        (lo <= v && v < hi))
    [ 1e-9; 0.013; 0.5; 1.0; 3.14; 255.0; 256.0; 1e6; 2.5e9 ]

let test_instrument_semantics () =
  let m = M.create () in
  M.incr m "c";
  M.incr ~by:5 m "c";
  Alcotest.(check int) "counter adds" 6 (M.counter_value m "c");
  M.set m "g" 3.0;
  M.set m "g" 1.5;
  Alcotest.(check bool) "set is last-write" true (M.gauge_value m "g" = Some 1.5);
  M.peak m "hw" 2.0;
  M.peak m "hw" 7.0;
  M.peak m "hw" 4.0;
  Alcotest.(check bool) "peak keeps max" true (M.gauge_value m "hw" = Some 7.0);
  M.observe m "h" 1.0;
  M.observe m "h" 3.0;
  M.observe m "h" 3.0;
  let h = Option.get (M.hist_value m "h") in
  Alcotest.(check int) "hist count" 3 h.M.count;
  Alcotest.(check (float 0.0)) "hist sum" 7.0 h.M.sum;
  Alcotest.(check (float 0.0)) "hist min" 1.0 h.M.vmin;
  Alcotest.(check (float 0.0)) "hist max" 3.0 h.M.vmax;
  Alcotest.(check bool) "hist buckets" true
    (h.M.buckets = [ (M.bucket_index 1.0, 1); (M.bucket_index 3.0, 2) ]);
  Alcotest.(check (float 1e-12)) "hist mean" (7.0 /. 3.0) (M.mean h);
  (* instrument kinds are sticky: reusing a name with another kind fails *)
  (match M.observe m "c" 1.0 with
  | () -> Alcotest.fail "counter accepted an observation"
  | exception Invalid_argument _ -> ());
  (* missing instruments read as empty *)
  Alcotest.(check int) "missing counter is 0" 0 (M.counter_value m "nope");
  Alcotest.(check bool) "missing gauge is None" true (M.gauge_value m "nope" = None)

let test_fork_absorb () =
  let parent = M.create () in
  let a = M.fork parent in
  M.incr a "x";
  Alcotest.(check int) "fork starts empty" 0 (M.counter_value parent "x");
  (* same shards absorbed in either order give the same registry *)
  let snap_of order_sel =
    let parent = M.create () in
    M.incr ~by:10 parent "c";
    M.observe parent "h" 1.0;
    let a = M.fork parent and b = M.fork parent in
    M.incr ~by:3 a "c";
    M.peak a "hw" 5.0;
    M.observe a "h" 8.0;
    M.incr ~by:4 b "c";
    M.peak b "hw" 2.0;
    M.observe b "h" 0.25;
    List.iter (M.absorb parent) (if order_sel then [ a; b ] else [ b; a ]);
    M.snapshot parent
  in
  let s1 = snap_of true and s2 = snap_of false in
  Alcotest.(check bool) "absorb order-free" true (s1 = s2);
  (* and the merged values are the sums/maxima *)
  let parent = M.create () in
  M.incr ~by:10 parent "c";
  let a = M.fork parent in
  M.incr ~by:3 a "c";
  M.peak a "hw" 5.0;
  M.observe a "h" 8.0;
  M.absorb parent a;
  Alcotest.(check int) "counters add" 13 (M.counter_value parent "c");
  Alcotest.(check bool) "gauges max" true (M.gauge_value parent "hw" = Some 5.0);
  let h = Option.get (M.hist_value parent "h") in
  Alcotest.(check int) "hist absorbed" 1 h.M.count

(* Shard-per-item fan-out through the domain pool: the merged registry
   must not depend on the domain count. *)
let test_pool_merge_determinism () =
  let run domains =
    let pool = Epoc_parallel.Pool.create ~domains () in
    let parent = M.create () in
    let items = List.init 20 (fun i -> (i, M.fork parent)) in
    let _ =
      Epoc_parallel.Pool.map pool
        (fun (i, shard) ->
          M.incr ~by:i shard "work.items";
          M.observe shard "work.size" (float_of_int (1 + (i mod 5)));
          M.peak shard "work.peak" (float_of_int (i mod 7)))
        items
    in
    List.iter (fun (_, shard) -> M.absorb parent shard) items;
    M.snapshot parent
  in
  Alcotest.(check bool) "1 vs 4 domains identical" true (run 1 = run 4)

(* Both pool fan-outs visit every index once, [map] keeps item order,
   and a failure surfaces as the exception of the lowest failing index,
   for any domain count. *)
let test_pool_fan_outs () =
  let module Pool = Epoc_parallel.Pool in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let id = Printf.sprintf "domains=%d " domains in
      let hits = Array.make 10 0 in
      Pool.parallel_for pool ~lo:3 ~hi:10 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int))
        (id ^ "each index in range once")
        [| 0; 0; 0; 1; 1; 1; 1; 1; 1; 1 |]
        hits;
      Alcotest.(check (list int))
        (id ^ "map keeps item order")
        (List.init 9 (fun i -> i * i))
        (Pool.map pool (fun i -> i * i) (List.init 9 Fun.id));
      let first_failure =
        match
          Pool.parallel_for pool ~lo:0 ~hi:8 (fun i ->
              if i = 5 || i = 2 then failwith (string_of_int i))
        with
        | () -> "none"
        | exception Failure m -> m
      in
      Alcotest.(check string) (id ^ "lowest failing index") "2" first_failure)
    [ 1; 4 ]

(* --- prometheus exposition ------------------------------------------------ *)

(* Golden exposition text covering all three instrument kinds, label
   pass-through and family grouping: the exact bytes a scraper sees. *)
let test_prometheus_golden () =
  let m = M.create () in
  M.incr ~by:3 m "serve.jobs";
  M.incr m {|serve.requests{status="ok"}|};
  M.incr ~by:2 m {|serve.requests{status="error"}|};
  M.set m "queue.depth" 4.0;
  M.observe m "lat" 0.5;
  M.observe m "lat" 1.0;
  M.observe m "lat" 3.0;
  let expected =
    String.concat "\n"
      [
        "# TYPE epoc_lat histogram";
        {|epoc_lat_bucket{le="1"} 1|};
        {|epoc_lat_bucket{le="2"} 2|};
        {|epoc_lat_bucket{le="4"} 3|};
        {|epoc_lat_bucket{le="+Inf"} 3|};
        "epoc_lat_sum 4.5";
        "epoc_lat_count 3";
        "# TYPE epoc_queue_depth gauge";
        "epoc_queue_depth 4";
        "# TYPE epoc_serve_jobs_total counter";
        "epoc_serve_jobs_total 3";
        "# TYPE epoc_serve_requests_total counter";
        {|epoc_serve_requests_total{status="error"} 2|};
        {|epoc_serve_requests_total{status="ok"} 1|};
        "";
      ]
  in
  Alcotest.(check string) "golden exposition" expected (M.to_prometheus m);
  (* the prefix is caller-chosen *)
  let m2 = M.create () in
  M.incr m2 "pool.maps";
  Alcotest.(check string) "custom prefix"
    "# TYPE x_pool_maps_total counter\nx_pool_maps_total 1\n"
    (M.to_prometheus ~prefix:"x_" m2)

(* Parse the rendered exposition back: every histogram's _bucket series
   must be cumulative (non-decreasing in le order, +Inf equal to
   _count), whatever was observed. *)
let prop_prometheus_cumulative =
  QCheck.Test.make ~name:"histogram buckets are cumulative" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 40) (float_range (-10.0) 1e7))
    (fun values ->
      let m = M.create () in
      List.iter (M.observe m "h") values;
      let text = M.to_prometheus m in
      let bucket_counts =
        List.filter_map
          (fun line ->
            match String.index_opt line ' ' with
            | Some i
              when String.length line > 17
                   && String.sub line 0 17 = "epoc_h_bucket{le=" ->
                Some
                  (int_of_string
                     (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> None)
          (String.split_on_char '\n' text)
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      if values = [] then bucket_counts = []
      else
        bucket_counts <> []
        && non_decreasing bucket_counts
        && List.nth bucket_counts (List.length bucket_counts - 1)
           = List.length values)

(* --- flight recorder ------------------------------------------------------ *)

module Flight = Epoc_obs.Flight
module Trace = Epoc_obs.Trace

let test_flight_ring () =
  let f = Flight.create ~capacity:3 () in
  Alcotest.(check int) "empty" 0 (Flight.length f);
  for i = 1 to 5 do
    Flight.record f
      ~id:(Printf.sprintf "r%d" i)
      ~wall_s:(float_of_int i)
      (J.Obj [ ("n", J.of_int i) ])
  done;
  Alcotest.(check int) "bounded" 3 (Flight.length f);
  Alcotest.(check int) "recorded is monotone" 5 (Flight.recorded f);
  Alcotest.(check (list string)) "newest first, oldest evicted"
    [ "r5"; "r4"; "r3" ]
    (List.map (fun e -> e.Flight.f_id) (Flight.recent f));
  Alcotest.(check bool) "evicted id not found" true (Flight.find f "r1" = None);
  (match Flight.find f "r4" with
  | Some e -> Alcotest.(check (float 0.0)) "found wall_s" 4.0 e.Flight.f_wall_s
  | None -> Alcotest.fail "r4 missing");
  (match Flight.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted")

(* the trace thunk is forced exactly for requests meeting the slow
   threshold — fast requests must not pay for trace rendering *)
let test_flight_slow_capture () =
  let f = Flight.create ~capacity:8 ~slow_s:1.0 () in
  let forced = ref 0 in
  let trace () =
    incr forced;
    J.Obj [ ("traceEvents", J.Arr []) ]
  in
  Flight.record f ~id:"fast" ~wall_s:0.2 ~trace J.Null;
  Alcotest.(check int) "fast request does not force the thunk" 0 !forced;
  Flight.record f ~id:"slow" ~wall_s:2.5 ~trace J.Null;
  Alcotest.(check int) "slow request forces it once" 1 !forced;
  let slow = Option.get (Flight.find f "slow") in
  Alcotest.(check bool) "slow flagged" true slow.Flight.f_slow;
  Alcotest.(check bool) "trace captured" true (slow.Flight.f_trace <> None);
  let fast = Option.get (Flight.find f "fast") in
  Alcotest.(check bool) "fast not flagged" false fast.Flight.f_slow;
  Alcotest.(check bool) "no trace for fast" true (fast.Flight.f_trace = None);
  (* without a threshold nothing is ever captured *)
  let f0 = Flight.create () in
  Flight.record f0 ~id:"x" ~wall_s:1e9 ~trace J.Null;
  Alcotest.(check bool) "no slow_s, no capture" true
    ((Option.get (Flight.find f0 "x")).Flight.f_trace = None);
  (* entry summaries serialize without embedding the trace document *)
  match Flight.entry_json slow with
  | J.Obj fields ->
      Alcotest.(check bool) "summary marks capture" true
        (List.assoc "trace_captured" fields = J.Bool true);
      Alcotest.(check bool) "trace doc not embedded" true
        (not (List.mem_assoc "trace" fields))
  | _ -> Alcotest.fail "entry_json is not an object"

(* every compile the daemon records lands in its flight recorder under
   the result's request id, and a sub-threshold slow_s captures the
   run's Chrome trace *)
let test_flight_records_runs () =
  let f = Flight.create ~capacity:8 ~slow_s:0.0 () in
  let c = Epoc_benchmarks.Benchmarks.find "bb84" in
  let r =
    Pipeline.compile (Engine.session ~name:"bb84" (Engine.create ())) c
  in
  Epoc_serve.Server.record_job f ~name:"bb84" c
    ~summary:(Pipeline.summary ~flow:"epoc" r)
    r;
  Alcotest.(check int) "one entry" 1 (Flight.length f);
  let e = Option.get (Flight.find f r.Pipeline.request_id) in
  Alcotest.(check bool) "slow at 0s threshold" true e.Flight.f_slow;
  (match e.Flight.f_trace with
  | None -> Alcotest.fail "no trace captured at slow_s = 0"
  | Some doc ->
      Alcotest.(check bool) "trace is chrome-event json" true
        (J.member "traceEvents" doc <> None);
      Alcotest.(check bool) "trace is the result's chrome trace" true
        (doc = Trace.to_chrome_json r.Pipeline.trace));
  match J.member "summary" (Flight.entry_json e) with
  | Some summary ->
      Alcotest.(check bool) "summary carries the request id" true
        (J.member "request_id" summary = Some (J.Str r.Pipeline.request_id));
      Alcotest.(check bool) "summary carries the flow" true
        (J.member "flow" summary = Some (J.Str "epoc"));
      Alcotest.(check bool) "summary carries stage breakdown" true
        (J.member "stages_s" summary <> None)
  | None -> Alcotest.fail "entry summary missing"

(* --- full-pipeline metrics determinism ----------------------------------- *)

(* Histogram sums are accumulated floats; recording order inside one
   shard is fixed, but the pulse stage records straight into the shared
   candidate registry from worker domains, so compare sums at tolerance
   and everything else exactly. *)
let same_value a b =
  match (a, b) with
  | M.Hist_v ha, M.Hist_v hb ->
      ha.M.count = hb.M.count && ha.M.vmin = hb.M.vmin && ha.M.vmax = hb.M.vmax
      && ha.M.buckets = hb.M.buckets
      && Float.abs (ha.M.sum -. hb.M.sum)
         <= 1e-9 *. Float.max 1.0 (Float.abs ha.M.sum)
  | a, b -> a = b

let test_pipeline_metrics_determinism () =
  let c = Epoc_benchmarks.Benchmarks.find "simon" in
  let run domains =
    let pool = Epoc_parallel.Pool.create ~domains () in
    let metrics = M.create () in
    let _ =
      Pipeline.compile
        (Engine.session ~metrics ~name:"simon" (Engine.create ~pool ()))
        c
    in
    M.snapshot metrics
  in
  let s1 = run 1 and s4 = run 4 in
  Alcotest.(check bool) "same instrument names" true
    (List.map fst s1 = List.map fst s4);
  List.iter2
    (fun (name, v1) (_, v4) ->
      Alcotest.(check bool)
        (Printf.sprintf "metric %s identical across domain counts" name)
        true (same_value v1 v4))
    s1 s4;
  (* the registry actually saw the run *)
  Alcotest.(check int) "pipeline.runs" 1
    (List.length (List.filter (fun (n, _) -> n = "pipeline.runs") s1))

(* --- trace: empty JSON, GC capture, chrome export ------------------------ *)

let test_empty_trace_json () =
  let t = Trace.create () in
  let v = Trace.to_json t in
  Alcotest.(check bool) "events is an explicit empty array" true
    (J.member "events" v = Some (J.Arr []));
  Alcotest.(check bool) "top_level_s is 0" true
    (Option.bind (J.member "top_level_s" v) J.to_num = Some 0.0)

let test_gc_capture () =
  let t = Trace.create ~gc:true () in
  let _ =
    Trace.span t "alloc" (fun () ->
        (* allocate enough to move the minor-words counter *)
        Sys.opaque_identity (List.init 10_000 (fun i -> float_of_int i)))
  in
  (match Trace.events t with
  | [ e ] -> (
      match e.Trace.gc with
      | Some g ->
          Alcotest.(check bool) "minor words grew" true (g.Trace.minor_words > 0.0);
          Alcotest.(check bool) "collections non-negative" true
            (g.Trace.minor_collections >= 0 && g.Trace.major_collections >= 0)
      | None -> Alcotest.fail "gc delta missing despite ~gc:true")
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* without ~gc the delta is absent and aggregation copes *)
  let t0 = Trace.create () in
  Trace.span t0 "plain" (fun () -> ());
  (match Trace.events t0 with
  | [ e ] -> Alcotest.(check bool) "no gc by default" true (e.Trace.gc = None)
  | _ -> Alcotest.fail "expected 1 event");
  match Trace.aggregate t0 with
  | [ row ] -> Alcotest.(check bool) "agg gc None" true (row.Trace.agg_gc = None)
  | _ -> Alcotest.fail "expected 1 aggregate row"

let test_chrome_trace_shape () =
  let c = Epoc_benchmarks.Benchmarks.find "qaoa" in
  let r = Pipeline.compile (Engine.session ~name:"qaoa" (Engine.create ())) c in
  let v = Trace.to_chrome_json r.Pipeline.trace in
  let events =
    Option.get (Option.bind (J.member "traceEvents" v) J.to_list)
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let str k e = Option.bind (J.member k e) J.to_str in
  let num k e = Option.bind (J.member k e) J.to_num in
  List.iter
    (fun e ->
      let ph = Option.get (str "ph" e) in
      Alcotest.(check bool) "ph is X or M" true (ph = "X" || ph = "M");
      Alcotest.(check bool) "has name" true (str "name" e <> None);
      Alcotest.(check bool) "has pid" true (num "pid" e <> None);
      Alcotest.(check bool) "has tid" true (num "tid" e <> None);
      if ph = "X" then begin
        Alcotest.(check bool) "X has ts" true (num "ts" e <> None);
        Alcotest.(check bool) "X has dur >= 0" true
          (match num "dur" e with Some d -> d >= 0.0 | None -> false)
      end)
    events;
  (* thread metadata names the driver and candidate threads *)
  let thread_names =
    List.filter_map
      (fun e ->
        if str "ph" e = Some "M" && str "name" e = Some "thread_name" then
          Option.bind (J.member "args" e) (J.member "name")
          |> Fun.flip Option.bind J.to_str
        else None)
      events
  in
  Alcotest.(check bool) "driver thread named" true
    (List.mem "driver" thread_names);
  Alcotest.(check bool) "cand0 thread named" true
    (List.mem "cand0" thread_names);
  (* candidate spans land on the candidate's thread with bare stage names *)
  let cand_spans =
    List.filter
      (fun e -> str "ph" e = Some "X" && num "tid" e = Some 1.0)
      events
  in
  Alcotest.(check bool) "cand0 spans present" true (cand_spans <> []);
  Alcotest.(check bool) "names have no cand prefix" true
    (List.for_all
       (fun e ->
         match str "name" e with
         | Some n -> not (String.length n >= 4 && String.sub n 0 4 = "cand")
         | None -> false)
       cand_spans)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "print/parse round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser edge cases" `Quick test_json_parse;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "instrument semantics" `Quick
            test_instrument_semantics;
          Alcotest.test_case "fork/absorb merge" `Quick test_fork_absorb;
          Alcotest.test_case "pool fan-outs" `Quick test_pool_fan_outs;
          Alcotest.test_case "pool merge determinism" `Quick
            test_pool_merge_determinism;
          Alcotest.test_case "pipeline metrics domain-count determinism" `Quick
            test_pipeline_metrics_determinism;
        ] );
      ( "prometheus",
        Alcotest.test_case "golden exposition" `Quick test_prometheus_golden
        :: List.map QCheck_alcotest.to_alcotest [ prop_prometheus_cumulative ]
      );
      ( "flight",
        [
          Alcotest.test_case "ring semantics" `Quick test_flight_ring;
          Alcotest.test_case "slow-threshold capture" `Quick
            test_flight_slow_capture;
          Alcotest.test_case "pipeline records entries" `Quick
            test_flight_records_runs;
        ] );
      ( "trace",
        [
          Alcotest.test_case "empty trace json" `Quick test_empty_trace_json;
          Alcotest.test_case "gc capture" `Quick test_gc_capture;
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
        ] );
    ]
