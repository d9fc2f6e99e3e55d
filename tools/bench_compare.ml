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

let load path =
  match J.parse (read_file path) with
  | Ok v -> v
  | Error m -> die "bench_compare: %s: %s" path m

(* The bench JSON shapes this build understands (bench/main.ml writes
   the newest).  Both inputs must carry one: silently mis-parsing a file
   produced by a different shape is worse than failing.  v2 added
   per-benchmark degraded_blocks/retries; v3 added synth_cache_sweep
   (additive, so a v2 baseline still compares cleanly — the sweep checks
   just skip); v4 added the device_sweep section and per-benchmark
   ir_roundtrip flags (also additive). *)
let supported_schema_versions = [ 2; 3; 4 ]

let check_schema path json =
  match Option.bind (J.member "schema_version" json) J.to_int with
  | Some v when List.mem v supported_schema_versions -> ()
  | Some v ->
      die
        "bench_compare: %s: schema_version %d not supported (this build \
         speaks %s); regenerate the file with the matching bench harness"
        path v
        (String.concat ", "
           (List.map string_of_int supported_schema_versions))
  | None ->
      die
        "bench_compare: %s: missing schema_version — the file predates the \
         versioned bench format; regenerate it with `dune exec bench/main.exe \
         -- json`"
        path

(* --- accessors over the bench JSON shape --------------------------------- *)

let benchmarks json =
  match Option.bind (J.member "benchmarks" json) J.to_list with
  | Some l -> l
  | None -> die "bench_compare: no \"benchmarks\" array"

let bench_name b =
  match Option.bind (J.member "name" b) J.to_str with
  | Some n -> n
  | None -> die "bench_compare: benchmark without a name"

let num_field name j = Option.bind (J.member name j) J.to_num

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

(* metrics counters section, when present (older baselines lack it) *)
let counters b =
  match Option.bind (J.member "metrics" b) (J.member "counters") with
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
   long enough).  A field the baseline lacks — [batch_iters_per_s]
   before the batched solver, the whole [synth_micro] section before the
   exact-gradient instantiation lane, [grape2q_micro] before the 2-qubit
   GRAPE lane — skips its check rather than
   failing; a field the baseline has and the candidate lacks (or holds
   a non-number) is a regression, so a lane dropped by a refactor cannot
   pass the gate. *)
let compare_throughput gate ~what ~section ~field ~unit base cand =
  let value json = Option.bind (J.member section json) (num_field field) in
  match (value base, value cand) with
  | None, _ -> ()
  | Some b, None ->
      Printf.printf "REGRESSION %-40s %10.1f %s -> no %s.%s in the candidate\n"
        what b unit section field;
      gate.regressions <- gate.regressions + 1
  | Some b, Some c when b > 0.0 ->
      let drop = 100.0 *. (b -. c) /. b in
      if drop > gate.threshold then begin
        Printf.printf "REGRESSION %-40s %10.1f -> %10.1f %s (-%.1f%%)\n" what
          b c unit drop;
        gate.regressions <- gate.regressions + 1
      end
      else if drop < -.gate.threshold then
        Printf.printf "improved   %-40s %10.1f -> %10.1f %s (+%.1f%%)\n" what
          b c unit (-.drop)
  | Some _, Some _ -> ()

let compare_micro gate base cand =
  compare_throughput gate ~what:"grape_micro" ~section:"grape_micro"
    ~field:"iters_per_s" ~unit:"iters/s" base cand;
  compare_throughput gate ~what:"grape_micro/batch" ~section:"grape_micro"
    ~field:"batch_iters_per_s" ~unit:"iters/s" base cand;
  compare_throughput gate ~what:"grape2q_micro" ~section:"grape2q_micro"
    ~field:"iters_per_s" ~unit:"iters/s" base cand;
  compare_throughput gate ~what:"synth_micro" ~section:"synth_micro"
    ~field:"steps_per_s" ~unit:"steps/s" base cand

(* synth_cache_sweep (v3+): a correctness gate on the candidate alone —
   the warm run must replay the cold schedule exactly (identical
   latency/ESP), hit the store, and never enter QSearch: no expansions,
   and no searches where the row counts them ([qsearch_runs]; a search
   that solves at the root expands nothing).  Skipped when the
   candidate predates the section. *)
let check_synth_sweep gate cand =
  match Option.bind (J.member "synth_cache_sweep" cand) J.to_list with
  | None -> ()
  | Some rows ->
      List.iter
        (fun row ->
          let name =
            Option.value ~default:"?"
              (Option.bind (J.member "name" row) J.to_str)
          in
          let side s field =
            Option.bind (J.member s row) (num_field field)
          in
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
        rows

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
      check_schema baseline_file baseline;
      check_schema candidate_file candidate;
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
