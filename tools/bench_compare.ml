(* bench_compare — regression gate over two BENCH_pipeline.json files.

   Usage:
     bench_compare [--threshold PCT] [--min-ms MS] [--micro-only]
       BASELINE.json CANDIDATE.json

   Compares per-benchmark compile time, per-stage wall clock and the
   GRAPE and instantiation micro-benchmark throughputs of a candidate
   run against a committed baseline.  [--micro-only] restricts the gate
   to the micro-benchmarks (1-qubit GRAPE solo and batched
   iterations/s, 2-qubit GRAPE iterations/s, instantiation Adam
   steps/s): those numbers are stable enough on
   shared CI runners to be a hard gate, where full pipeline wall-clock
   comparison stays a soft signal.  A measurement regresses when it is more than
   [threshold] percent slower (default 20%) AND the absolute slowdown
   exceeds [min-ms] milliseconds (default 2 ms) — the floor keeps
   micro-second stages, which are pure timer noise, out of the gate.
   Metric counter drifts (work done, not time taken) are printed as
   warnings but never fail the gate: counters legitimately move when
   the pipeline's behaviour is intentionally changed.

   Exit status: 0 no regression, 1 regression, 2 usage or parse error. *)

module J = Epoc_obs.Json

let usage () =
  prerr_endline
    "usage: bench_compare [--threshold PCT] [--min-ms MS] [--micro-only] \
     BASELINE.json CANDIDATE.json";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> die "bench_compare: %s" m

(* The one bench JSON shape this build reads: schema 4, as bench/main.ml
   writes it. *)
let schema_version = 4

(* The micro-benchmark lanes the hard gate compares: what, section,
   field, unit. *)
let micro_lanes =
  [
    ("grape_micro", "grape_micro", "iters_per_s", "iters/s");
    ("grape_micro/batch", "grape_micro", "batch_iters_per_s", "iters/s");
    ("grape2q_micro", "grape2q_micro", "iters_per_s", "iters/s");
    ("synth_micro", "synth_micro", "steps_per_s", "steps/s");
  ]

let num_field name j = Option.bind (J.member name j) J.to_num

let micro_value json ~section ~field =
  Option.bind (J.member section json) (num_field field)

let metrics_counters b =
  Option.bind (J.member "metrics" b) (J.member "counters")

(* Parse [path] and check that it has that shape: the schema version,
   and every section a check reads — a name and a metrics.counters
   object on each benchmark row, the synth_cache_sweep rows and a number
   for each micro lane.  Anything else is a parse error, so no check is
   ever skipped for want of its input. *)
let load path =
  let json =
    match J.parse (read_file path) with
    | Ok v -> v
    | Error m -> die "bench_compare: %s: %s" path m
  in
  (match Option.bind (J.member "schema_version" json) J.to_int with
  | Some v when v = schema_version -> ()
  | Some v ->
      die
        "bench_compare: %s: schema_version %d not supported (this build \
         speaks %d); regenerate the file with the matching bench harness"
        path v schema_version
  | None ->
      die
        "bench_compare: %s: missing schema_version — the file predates the \
         versioned bench format; regenerate it with `dune exec bench/main.exe \
         -- json`"
        path);
  let missing what =
    die
      "bench_compare: %s: no %s; regenerate the file with `dune exec \
       bench/main.exe -- json`"
      path what
  in
  (match Option.bind (J.member "benchmarks" json) J.to_list with
  | None -> missing "\"benchmarks\" array"
  | Some rows ->
      List.iter
        (fun b ->
          match
            (Option.bind (J.member "name" b) J.to_str, metrics_counters b)
          with
          | None, _ -> missing "benchmark name"
          | Some _, Some (J.Obj _) -> ()
          | Some name, _ -> missing (name ^ " metrics.counters"))
        rows);
  if Option.bind (J.member "synth_cache_sweep" json) J.to_list = None then
    missing "synth_cache_sweep";
  List.iter
    (fun (_, section, field, _) ->
      if micro_value json ~section ~field = None then
        missing (section ^ "." ^ field))
    micro_lanes;
  json

(* --- accessors over the checked shape ------------------------------------- *)

let benchmarks json =
  Option.get (Option.bind (J.member "benchmarks" json) J.to_list)

let bench_name b = Option.get (Option.bind (J.member "name" b) J.to_str)

(* stage name -> wall_s *)
let stage_walls b =
  match Option.bind (J.member "stages" b) J.to_list with
  | None -> []
  | Some stages ->
      List.filter_map
        (fun s ->
          match
            (Option.bind (J.member "stage" s) J.to_str, num_field "wall_s" s)
          with
          | Some name, Some w -> Some (name, w)
          | _ -> None)
        stages

let counters b =
  match metrics_counters b with
  | Some (J.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int v))
        fields
  | _ -> []

(* --- comparison ----------------------------------------------------------- *)

type gate = {
  threshold : float; (* relative slowdown that fails, in percent *)
  min_s : float; (* absolute slowdown floor, in seconds *)
  mutable regressions : int;
  mutable warnings : int;
}

let pct_change ~base ~cand =
  if base <= 0.0 then 0.0 else 100.0 *. (cand -. base) /. base

let check_time gate ~what ~base ~cand =
  let delta = pct_change ~base ~cand in
  if delta > gate.threshold && cand -. base > gate.min_s then begin
    Printf.printf "REGRESSION %-40s %10.4f s -> %10.4f s (%+.1f%%)\n" what base
      cand delta;
    gate.regressions <- gate.regressions + 1
  end
  else if Float.abs delta > gate.threshold && cand -. base < -.gate.min_s then
    Printf.printf "improved   %-40s %10.4f s -> %10.4f s (%+.1f%%)\n" what base
      cand delta

let check_counters gate ~bench ~base ~cand =
  List.iter
    (fun (name, bv) ->
      match List.assoc_opt name cand with
      | Some cv when cv <> bv ->
          Printf.printf "warning    %s/%s: counter %d -> %d\n" bench name bv cv;
          gate.warnings <- gate.warnings + 1
      | Some _ -> ()
      | None ->
          Printf.printf "warning    %s/%s: counter disappeared (was %d)\n" bench
            name bv;
          gate.warnings <- gate.warnings + 1)
    base

let compare_benchmark gate base cand =
  let name = bench_name base in
  (match (num_field "compile_s" base, num_field "compile_s" cand) with
  | Some b, Some c -> check_time gate ~what:(name ^ "/compile") ~base:b ~cand:c
  | _ -> ());
  let cand_stages = stage_walls cand in
  List.iter
    (fun (stage, b) ->
      match List.assoc_opt stage cand_stages with
      | Some c ->
          check_time gate ~what:(Printf.sprintf "%s/%s" name stage) ~base:b
            ~cand:c
      | None -> ())
    (stage_walls base);
  check_counters gate ~bench:name ~base:(counters base) ~cand:(counters cand);
  (* bench runs are fault-free: any degraded block in the candidate means
     a solver actually broke, which is a regression regardless of time *)
  (match num_field "degraded_blocks" cand with
  | Some d when d > 0.0 ->
      Printf.printf "REGRESSION %-40s %d block(s) degraded to gate pulses\n"
        (name ^ "/degraded") (int_of_float d);
      gate.regressions <- gate.regressions + 1
  | _ -> ())

(* Micro-benchmark throughput: higher is better, so the check is
   inverted and has no absolute floor (the micro-benchmarks always run
   long enough). *)
let compare_micro gate base cand =
  List.iter
    (fun (what, section, field, unit) ->
      let b = Option.get (micro_value base ~section ~field)
      and c = Option.get (micro_value cand ~section ~field) in
      if b > 0.0 then begin
        let drop = 100.0 *. (b -. c) /. b in
        if drop > gate.threshold then begin
          Printf.printf "REGRESSION %-40s %10.1f -> %10.1f %s (-%.1f%%)\n" what
            b c unit drop;
          gate.regressions <- gate.regressions + 1
        end
        else if drop < -.gate.threshold then
          Printf.printf "improved   %-40s %10.1f -> %10.1f %s (+%.1f%%)\n" what
            b c unit (-.drop)
      end)
    micro_lanes

(* synth_cache_sweep: a correctness gate on the candidate alone — the
   warm run must replay the cold schedule exactly (identical
   latency/ESP), hit the store, and never enter QSearch: no expansions,
   and no searches where the row counts them ([qsearch_runs]; a search
   that solves at the root expands nothing). *)
let check_synth_sweep gate cand =
  List.iter
    (fun row ->
      let name =
        Option.value ~default:"?" (Option.bind (J.member "name" row) J.to_str)
      in
      let side s field = Option.bind (J.member s row) (num_field field) in
      let fail what =
        Printf.printf "REGRESSION %-40s %s\n"
          (Printf.sprintf "synth_cache/%s" name) what;
        gate.regressions <- gate.regressions + 1
      in
      (match (side "cold" "latency_ns", side "warm" "latency_ns") with
      | Some c, Some w when c <> w -> fail "warm latency differs from cold"
      | _ -> ());
      (match (side "cold" "esp", side "warm" "esp") with
      | Some c, Some w when c <> w -> fail "warm ESP differs from cold"
      | _ -> ());
      (match side "warm" "synth_cache_hits" with
      | Some h when h <= 0.0 -> fail "warm run missed the synthesis cache"
      | _ -> ());
      match (side "warm" "qsearch_expansions", side "warm" "qsearch_runs")
      with
      | Some e, _ when e > 0.0 -> fail "warm run still ran QSearch"
      | _, Some n when n > 0.0 -> fail "warm run still ran QSearch"
      | _ -> ())
    (Option.get (Option.bind (J.member "synth_cache_sweep" cand) J.to_list))

let () =
  let threshold = ref 20.0 in
  let min_ms = ref 2.0 in
  let micro_only = ref false in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--micro-only" :: rest ->
        micro_only := true;
        parse_args rest
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t > 0.0 ->
            threshold := t;
            parse_args rest
        | _ -> usage ())
    | "--min-ms" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t >= 0.0 ->
            min_ms := t;
            parse_args rest
        | _ -> usage ())
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | file :: rest ->
        files := file :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ baseline_file; candidate_file ] ->
      let baseline = load baseline_file in
      let candidate = load candidate_file in
      let gate =
        {
          threshold = !threshold;
          min_s = !min_ms /. 1e3;
          regressions = 0;
          warnings = 0;
        }
      in
      if not !micro_only then begin
        let cand_benches =
          List.map (fun b -> (bench_name b, b)) (benchmarks candidate)
        in
        List.iter
          (fun base ->
            match List.assoc_opt (bench_name base) cand_benches with
            | Some cand -> compare_benchmark gate base cand
            | None ->
                Printf.printf
                  "warning    benchmark %s missing from candidate\n"
                  (bench_name base);
                gate.warnings <- gate.warnings + 1)
          (benchmarks baseline)
      end;
      compare_micro gate baseline candidate;
      if not !micro_only then check_synth_sweep gate candidate;
      Printf.printf
        "bench_compare: %d regression%s, %d warning%s (threshold %.0f%%, \
         floor %.1f ms)\n"
        gate.regressions
        (if gate.regressions = 1 then "" else "s")
        gate.warnings
        (if gate.warnings = 1 then "" else "s")
        !threshold !min_ms;
      exit (if gate.regressions > 0 then 1 else 0)
  | _ -> usage ()
