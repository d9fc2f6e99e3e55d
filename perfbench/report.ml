(* Per-run state shared by the workloads, the metrics derived from it
   and the result printer.

   Request classes: a [Miss] runs QSearch and the pulse solver from
   scratch (a one-shot cold compile, a fresh circuit sent to the
   daemon); a [Hit] repeats an input and is answered from reuse (the
   warm engine's pulse library in one-shot, the stores in serve-warm).
   Each percentile stays inside one class. *)

type cls = Miss | Hit

type sample = {
  key : string;  (** the distinct input *)
  cls : cls;
  t0 : float;  (** request start *)
  t1 : float;  (** result in hand *)
}

(* A sample's wall seconds, reference seconds and their ratio. *)
type timed = { s : sample; wall : float; ref_s : float; norm : float }

let timed s =
  let wall = s.t1 -. s.t0 and ref_s = Measure.ref_around s.t0 s.t1 in
  { s; wall; ref_s; norm = wall /. ref_s }

(* What one compile did, read from its result (in-process) or its
   response (serve). *)
type work = {
  blocks : int;
  synthesized : int;
  expansions : float;
  grape_iters : float;
  lib_hits : int;
  lib_misses : int;
  synth_hits : int;
  synth_misses : int;
  pulse_hits : int;
  pulse_misses : int;
  near_hits : int;
  input_depth : int;
  zx_depth : int;
  instructions : int;
  retries : int;
  degraded_blocks : int;
}

let work_of_result (r : Epoc.Pipeline.result) =
  let st = r.Epoc.Pipeline.stats in
  let lib = r.Epoc.Pipeline.library_stats in
  let c = Inproc.counter r in
  {
    blocks = st.Epoc.Pipeline.blocks;
    synthesized = st.Epoc.Pipeline.synthesized_blocks;
    expansions = Inproc.hist_sum r "qsearch.expansions";
    grape_iters = Inproc.hist_sum r "grape.iterations";
    lib_hits = lib.Epoc_pulse.Library.hits;
    lib_misses = lib.Epoc_pulse.Library.misses;
    synth_hits = c "synth.cache.hits";
    synth_misses = c "synth.cache.misses";
    pulse_hits = c "cache.hits";
    pulse_misses = c "cache.misses";
    near_hits = c "cache.near_hits";
    input_depth = st.Epoc.Pipeline.input_depth;
    zx_depth = st.Epoc.Pipeline.zx_depth;
    instructions = st.Epoc.Pipeline.pulse_count;
    retries = st.Epoc.Pipeline.retries;
    degraded_blocks = st.Epoc.Pipeline.degraded_blocks;
  }

type state = {
  mutable samples : sample list;
  mutable works : work list;
  tally : Checks.tally;
  mutable quality_keys : string list;
      (** inputs whose first outputs feed the quality gmeans *)
  mutable setups : Measure.steps list;  (** one per set-up of the run *)
  mutable peak_rss_mb : float;
  mutable overhead_pairs : (float * float) list;
      (** (untraced, traced) wall seconds of one input, back to back *)
  mutable serve_requests : (float * float) list;
      (** (client latency, daemon-reported stage time) per request, s *)
  mutable queue_waits : float list;  (** daemon-reported, s *)
}

let state () =
  {
    samples = [];
    works = [];
    tally = Checks.tally ();
    quality_keys = [];
    setups = [];
    peak_rss_mb = nan;
    overhead_pairs = [];
    serve_requests = [];
    queue_waits = [];
  }

let add_sample st s = st.samples <- s :: st.samples

(* --- metrics --------------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (** samples behind the value *)
  detail : string;  (** raw and reference seconds, validity *)
}

let metric ?(detail = "") ~n name unit_ value = { name; value; unit_; n; detail }

let group_by_key (ts : timed list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      Hashtbl.replace tbl t.s.key
        (t :: Option.value ~default:[] (Hashtbl.find_opt tbl t.s.key)))
    ts;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Percentile [q] of a class, in reference units, over the workload's
   input mix: every distinct input weighs the same however many samples
   the window gave it (a one-shot window ends part way through a pass
   over inputs whose costs differ a hundredfold, and the extra samples
   of the first few moved the median across that gap).  The raw and
   reference seconds it was divided out of are printed beside it; a
   tail percentile is valid only with at least ten samples beyond it. *)
let percentile ~name ~q (samples : timed list) =
  let weighted =
    List.concat_map
      (fun (_, ts) ->
        let w = 1.0 /. Float.of_int (List.length ts) in
        List.map (fun t -> (t, w)) ts)
      (group_by_key samples)
  in
  let at f = Measure.weighted_quantile q (List.map (fun (t, w) -> (f t, w)) weighted) in
  let v = at (fun t -> t.norm) in
  let beyond = List.length (List.filter (fun t -> t.norm > v) samples) in
  let validity =
    if q > 0.5 then
      Printf.sprintf " beyond=%d%s" beyond
        (if beyond >= 10 then "" else " (invalid: fewer than 10 beyond)")
    else ""
  in
  metric ~n:(List.length samples) name "ref" v
    ~detail:
      (Printf.sprintf "raw_s=%.6g ref_s=%.6g%s" (at (fun t -> t.wall))
         (Measure.median (List.map (fun t -> t.ref_s) samples))
         validity)

(* [compile_of] and [miss_of] pick the samples of compile_ref.gmean and
   of miss_ref.p50. *)
let end_to_end st ~compile_of ~miss_of =
  let all = List.map timed st.samples in
  let of_cls p = List.filter (fun t -> p t.s.cls) all in
  let compiles = of_cls compile_of in
  let per_key =
    List.map
      (fun (_, ts) ->
        ( Measure.median (List.map (fun t -> t.norm) ts),
          Measure.median (List.map (fun t -> t.wall) ts),
          Measure.median (List.map (fun t -> t.ref_s) ts) ))
      (group_by_key compiles)
  in
  let g f = Measure.gmean (List.map f per_key) in
  let hits = of_cls (fun c -> c = Hit) in
  let misses = of_cls miss_of in
  let goldens = List.filter_map Checks.golden st.quality_keys in
  let t = st.tally in
  [
    metric ~n:(List.length st.setups) "setup_s" "s"
      (Measure.median (List.map Measure.steps_ref st.setups) *. Measure.nominal_ref_s)
      ~detail:
        (String.concat " "
           (List.map
              (fun s ->
                Printf.sprintf "raw_s=%.4f/ref=%.1f" (Measure.steps_wall s)
                  (Measure.steps_ref s))
              st.setups));
    metric ~n:(List.length per_key) "compile_ref.gmean" "ref"
      (g (fun (v, _, _) -> v))
      ~detail:
        (Printf.sprintf "raw_s=%.6g ref_s=%.6g samples=%d"
           (g (fun (_, r, _) -> r))
           (g (fun (_, _, r) -> r))
           (List.length compiles));
    percentile ~name:"hit_ref.p50" ~q:0.5 hits;
    percentile ~name:"hit_ref.p95" ~q:0.95 hits;
    percentile ~name:"miss_ref.p50" ~q:0.5 misses;
    metric ~n:(List.length goldens) "pulse_latency_ns.gmean" "ns"
      (Measure.gmean (List.map (fun (o : Checks.output) -> o.latency) goldens));
    metric ~n:(List.length goldens) "esp.gmean" "1"
      (Measure.gmean (List.map (fun (o : Checks.output) -> o.esp) goldens));
    metric ~n:1 "peak_rss_mb" "MB" st.peak_rss_mb;
    metric ~n:t.Checks.attempted "ok_frac" "1"
      (1.0
      -. (Float.of_int t.Checks.failed /. Float.of_int (max 1 t.Checks.attempted)))
      ~detail:
        (Printf.sprintf "fail_frac=%g errors=%d degraded=%d check_failures=%d"
           (Float.of_int t.Checks.failed /. Float.of_int (max 1 t.Checks.attempted))
           t.Checks.errors t.Checks.degraded t.Checks.check_failures);
  ]

(* --- per-layer metrics ----------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per-layer metrics: shares and allocation from the traced samples
   whose root span is named [primary] (the workload's gated class),
   counts and ratios from the work records of every traced compile. *)
let per_layer st (spans : Spans.t) ~primary =
  let ids = Spans.samples_where spans (fun s -> s.Spans.name = primary) in
  let wall, by_name = Spans.totals spans ids in
  let n_samples = Float.of_int (max 1 (List.length ids)) in
  let self names =
    Measure.sum
      (List.map
         (fun n -> fst (Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_name n)))
         names)
  in
  let words names =
    Measure.sum
      (List.map
         (fun n -> snd (Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_name n)))
         names)
  in
  let share names = ratio (self names) wall in
  let mw names = words names /. 1e6 /. n_samples in
  let ws = st.works in
  let nw = Float.of_int (max 1 (List.length ws)) in
  let sum_i f = Float.of_int (List.fold_left (fun a w -> a + f w) 0 ws) in
  let sum_f f = List.fold_left (fun a w -> a +. f w) 0.0 ws in
  let refs = Measure.ref_times () in
  let pulses_ref =
    (* time every traced compile spent in the pulses pass, in reference
       units: the denominator of GRAPE throughput *)
    let _, all = Spans.totals spans (Spans.samples_where spans (fun _ -> true)) in
    ratio
      (fst (Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt all "pulses")))
      (Measure.median refs)
  in
  let overhead =
    match st.overhead_pairs with
    | [] -> 0.0
    | pairs -> Measure.median (List.map (fun (u, t) -> (t /. u) -. 1.0) pairs)
  in
  let client = Measure.sum (List.map fst st.serve_requests) in
  let stages = Measure.sum (List.map snd st.serve_requests) in
  let m ?(n = List.length ws) name unit_ v = metric ~n name unit_ v in
  let ns = List.length ids in
  [
    m ~n:ns "synthesis.share" "1" (share [ "synthesis" ]);
    m ~n:ns "synthesis.alloc_mw" "Mw" (mw [ "synthesis" ]);
    m "synthesis.qsearch_expansions" "count" (sum_f (fun w -> w.expansions) /. nw);
    m "synthesis.synthesized_ratio" "1"
      (ratio (sum_i (fun w -> w.synthesized)) (sum_i (fun w -> w.blocks)));
    m ~n:ns "qoc.share" "1" (share [ "pulses" ]);
    m ~n:ns "qoc.alloc_mw" "Mw" (mw [ "pulses" ]);
    m "qoc.grape_iterations" "count" (sum_f (fun w -> w.grape_iters) /. nw);
    m "qoc.grape_iters_per_ref" "1/ref" (ratio (sum_f (fun w -> w.grape_iters)) pulses_ref);
    m "qoc.library_hit_ratio" "1"
      (ratio (sum_i (fun w -> w.lib_hits)) (sum_i (fun w -> w.lib_hits + w.lib_misses)));
    m "cache.synth_hit_ratio" "1"
      (ratio (sum_i (fun w -> w.synth_hits)) (sum_i (fun w -> w.synth_hits + w.synth_misses)));
    m "cache.pulse_hit_ratio" "1"
      (ratio (sum_i (fun w -> w.pulse_hits)) (sum_i (fun w -> w.pulse_hits + w.pulse_misses)));
    m "cache.near_hit_ratio" "1"
      (ratio (sum_i (fun w -> w.near_hits)) (sum_i (fun w -> w.pulse_hits + w.pulse_misses)));
    m ~n:ns "zx.share" "1" (share [ "zx.optimize" ]);
    m ~n:ns "zx.alloc_mw" "Mw" (mw [ "zx.optimize" ]);
    m "zx.depth_ratio" "1"
      (ratio (sum_i (fun w -> w.zx_depth)) (sum_i (fun w -> w.input_depth)));
    m ~n:(List.length st.serve_requests) "serve.overhead_share" "1"
      (ratio (client -. stages) client);
    m ~n:(List.length st.queue_waits) "serve.queue_wait_s.p50" "s"
      (match st.queue_waits with [] -> 0.0 | q -> Measure.median q);
    m ~n:ns "epoc.driver.share" "1" (share [ "compile" ]);
    m ~n:ns "partition.share" "1" (share [ "partition" ]);
    m "partition.blocks" "count" (sum_i (fun w -> w.blocks) /. nw);
    m ~n:ns "partition.regroup.share" "1" (share [ "regroup" ]);
    m ~n:ns "circuit.reorder.share" "1" (share [ "reorder"; "reorder-vug" ]);
    m ~n:ns "pulse.schedule.share" "1" (share [ "schedule" ]);
    m "pulse.instructions" "count" (sum_i (fun w -> w.instructions) /. nw);
    m ~n:ns "qasm.share" "1" (share [ "qasm" ]);
    m "resilience.retries" "count" (sum_i (fun w -> w.retries));
    m "resilience.degraded_blocks" "count" (sum_i (fun w -> w.degraded_blocks));
    m ~n:(List.length !Checks.roundtrip_s) "pulseir.roundtrip_s" "s"
      (Measure.mean !Checks.roundtrip_s);
    m ~n:(List.length refs) "bench.ref_s.p50" "s" (Measure.median refs);
    m ~n:(List.length refs) "bench.ref_s.iqr" "1" (Measure.iqr_share refs);
    m ~n:(List.length st.overhead_pairs) "trace.overhead" "1" overhead;
  ]

(* --- printing ------------------------------------------------------------- *)

let json_number v = Epoc_obs.Json.number_to_string v

(* Human-readable lines, then the result object as the last line of
   stdout.  A non-finite value marks the run incorrect. *)
let print ~(tally : Checks.tally) metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  List.iter
    (fun m ->
      Printf.printf "metric %-30s %-14.8g %-5s n=%-5d %s\n" m.name m.value m.unit_
        m.n m.detail)
    metrics;
  List.iter (Printf.printf "failure: %s\n") (List.rev tally.Checks.notes);
  let correct = finite && tally.Checks.failed = 0 in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (if Float.is_finite m.value then json_number m.value else "0")
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 tally.Checks.attempted) tally.Checks.failed body
