(* epoc — command-line front end to the EPOC pulse compiler.

   epoc compile <file.qasm|bench:name> [--flow epoc|paqoc|accqoc|gate]
                [--grape] [--no-zx] [--no-synthesis] [--no-regroup]
                [--partition-width N] [-v|-vv] [--schedule]
                [--trace] [--trace-json] [--trace-gc] [--trace-chrome FILE]
   epoc report  <file.qasm|bench:name> [--json|--prometheus]
                [flow/stage options]
                per-stage wall clock + GC deltas, solver convergence
                telemetry and the full metrics registry for one compile
   epoc serve   --socket PATH [--workers N] [--flight N] [--slow-trace SEC]
                long-lived compile daemon (JSONL over a Unix socket)
   epoc top     --socket PATH [--watch SEC]
                live status of a running daemon: queue, request
                counters, latency and the flight recorder's recent jobs
   epoc list                 list builtin benchmarks
   epoc devices [--dump NAME] list the device zoo / print a device file
   epoc ir <file.json>       validate a pulse-IR file (strict import +
                             byte-identical re-export)
   epoc zx <file|bench:name> run only the graph optimization stage

   compile/report/serve take --device NAME|FILE (or EPOC_DEVICE) to
   target a zoo device or device file, and compile --export-ir FILE
   writes the winning schedule as portable pulse-IR JSON. *)

open Cmdliner
module T = Epoc_obs.Trace
module M = Epoc_obs.Metrics
module J = Epoc_obs.Json

(* -v selects Info, -vv (and more) Debug; default shows warnings only.
   Sources (epoc.pipeline, epoc.qoc, epoc.synthesis, epoc.zx) follow the
   global level. *)
let setup_logs verbosity =
  (* pulse and synthesis solves log from pool domains: serialize the
     reporter *)
  Logs_threaded.enable ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (Some
       (match verbosity with
       | 0 -> Logs.Warning
       | 1 -> Logs.Info
       | _ -> Logs.Debug))

let load spec =
  match String.length spec >= 6 && String.sub spec 0 6 = "bench:" with
  | true ->
      let name = String.sub spec 6 (String.length spec - 6) in
      Epoc_benchmarks.Benchmarks.find name
  | false -> Epoc_qasm.Qasm.of_file spec

let circuit_arg =
  let doc = "Input circuit: a .qasm file or bench:<name> for a builtin benchmark." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let flow_arg =
  let doc = "Compilation flow: epoc, paqoc, accqoc or gate." in
  Arg.(value & opt string "epoc" & info [ "flow" ] ~docv:"FLOW" ~doc)

let grape_arg =
  let doc = "Generate pulses with real GRAPE duration searches (slow)." in
  Arg.(value & flag & info [ "grape" ] ~doc)

let no_zx = Arg.(value & flag & info [ "no-zx" ] ~doc:"Disable the ZX stage.")
let no_synthesis =
  Arg.(value & flag & info [ "no-synthesis" ] ~doc:"Disable VUG synthesis.")
let no_regroup =
  Arg.(value & flag & info [ "no-regroup" ] ~doc:"Disable regrouping before QOC.")

let partition_width =
  Arg.(value & opt int 3 & info [ "partition-width" ] ~docv:"N"
         ~doc:"Partition qubit budget (default 3).")

(* --- resilience flags ------------------------------------------------------ *)

let deadline_arg =
  let doc =
    "Total compile deadline in seconds (wall clock, best effort): solver \
     loops abort with a typed deadline error once it passes, and affected \
     blocks retry or degrade to gate pulses."
  in
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SEC" ~env:(Cmd.Env.info "EPOC_DEADLINE") ~doc)

let block_deadline_arg =
  let doc =
    "Compute deadline in seconds for each solve attempt of one block \
     (one GRAPE duration search, or one block's synthesis); it starts \
     when that attempt starts, so it times that block alone.  Capped by \
     $(b,--deadline)."
  in
  Arg.(value & opt (some float) None
       & info [ "block-deadline" ] ~docv:"SEC" ~doc)

let retries_arg =
  let doc =
    "Retry attempts per block on a recoverable solver failure before \
     degrading to per-gate pulse playback."
  in
  Arg.(value & opt int Epoc.Config.default.Epoc.Config.max_retries
       & info [ "retries" ] ~docv:"N" ~doc)

let strict_arg =
  let doc =
    "Fail (exit 1) when any block degraded to gate-pulse playback instead \
     of exiting 3 with the fallback schedule."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let fault_conv =
  let parse s =
    let seed =
      match Sys.getenv_opt "EPOC_FAULT_SEED" with
      | None -> 0
      | Some v -> ( match int_of_string_opt v with Some i -> i | None -> 0)
    in
    match Epoc_fault.parse ~seed s with
    | Ok spec -> Ok spec
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Epoc_fault.to_string s))

let fault_arg =
  let doc =
    "Deterministic fault injection spec, e.g. \
     grape_nan:0.1,deadline:block3 (testing only; seeded by \
     EPOC_FAULT_SEED)."
  in
  Arg.(value & opt (some fault_conv) None
       & info [ "fault" ] ~docv:"SPEC" ~env:(Cmd.Env.info "EPOC_FAULT") ~doc)

(* Exit status of a compile: the summary's code (0 = clean, 3 = valid
   schedule but some blocks degraded to gate pulses), or 1 under
   --strict when blocks degraded. *)
let exit_status ~strict (r : Epoc.Pipeline.result) =
  let degraded = r.Epoc.Pipeline.stats.Epoc.Pipeline.degraded_blocks in
  if strict && degraded > 0 then begin
    Printf.eprintf
      "error: %d block(s) degraded to gate-pulse playback (--strict)\n"
      degraded;
    1
  end
  else snd (Epoc.Pipeline.status r)

let cache_arg =
  let doc =
    "Persistent pulse cache directory: pulses synthesized by this run are \
     stored there and later runs reuse them (exact fingerprint hits skip \
     GRAPE, near hits warm-start it). Created if missing."
  in
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"DIR" ~env:(Cmd.Env.info "EPOC_CACHE") ~doc)

let device_arg =
  let doc =
    "Target device: a registered zoo name (see epoc devices) or a path to \
     a device JSON file. Partitioning and pulse generation then follow the \
     device's coupling graph and calibrations instead of the default \
     contiguous-chain model."
  in
  Arg.(value & opt (some string) None
       & info [ "device" ] ~docv:"NAME|FILE"
           ~env:(Cmd.Env.info "EPOC_DEVICE") ~doc)

let export_ir_arg =
  let doc =
    "Write the compiled schedule as portable pulse-IR JSON (waveforms, \
     placements, device provenance) to $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "export-ir" ] ~docv:"FILE" ~doc)

let synth_cache_arg =
  let doc =
    "Persistent synthesis cache directory: per-block synthesized circuits \
     (VUG + CNOT structure) are stored by the block's op list and warm \
     recompiles replay them instead of running QSearch. Created if \
     missing."
  in
  Arg.(value & opt (some string) None
       & info [ "synth-cache" ] ~docv:"DIR"
           ~env:(Cmd.Env.info "EPOC_SYNTH_CACHE") ~doc)

let similarity_order_arg =
  let doc =
    "Order each pulse batch by unitary similarity (greedy nearest-neighbor \
     over Hilbert-Schmidt distance) and warm-start every GRAPE solve from \
     the previous result, AccQOC-style. Changes solver trajectories, so \
     it is off by default."
  in
  Arg.(value & flag & info [ "similarity-order" ] ~doc)

let verbose =
  let doc = "Increase log verbosity: -v info, -vv debug." in
  Term.app (Term.const List.length)
    Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let show_schedule =
  Arg.(value & flag & info [ "schedule" ] ~doc:"Print the pulse schedule.")

let show_trace =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Print the per-stage trace (wall-clock + counters).")

let show_trace_json =
  Arg.(value & flag & info [ "trace-json" ]
         ~doc:"Print the per-stage trace as JSON on stdout.")

let trace_gc =
  Arg.(value & flag & info [ "trace-gc" ]
         ~doc:"Capture GC/allocation deltas per traced span.")

let trace_chrome =
  Arg.(value & opt (some string) None
       & info [ "trace-chrome" ] ~docv:"FILE"
           ~doc:
             "Write the span tree as Chrome trace-event JSON to $(docv) \
              (open in chrome://tracing or Perfetto).")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The compile config of the flow, stage and resilience flags, shared by
   compile, report and serve. *)
let config_term =
  let config_of grape no_zx no_synth no_regroup width cache_dir
      synth_cache_dir similarity_order deadline block_deadline retries fault =
    let base = Epoc.Config.default in
    {
      base with
      Epoc.Config.qoc_mode =
        (if grape then Epoc.Config.Grape else Epoc.Config.Estimate);
      use_zx = not no_zx;
      use_synthesis = not no_synth;
      regroup = not no_regroup;
      partition =
        {
          base.Epoc.Config.partition with
          Epoc_partition.Partition.qubit_limit = width;
        };
      cache_dir;
      synth_cache_dir;
      similarity_order;
      total_deadline = deadline;
      block_deadline;
      max_retries = retries;
      fault;
    }
  in
  Term.(
    const config_of $ grape_arg $ no_zx $ no_synthesis $ no_regroup
    $ partition_width $ cache_arg $ synth_cache_arg $ similarity_order_arg
    $ deadline_arg $ block_deadline_arg $ retries_arg $ fault_arg)

(* The one compile path of [compile] and [report]: load the circuit,
   open a one-shot engine, resolve the device, run the named flow with a
   fresh trace sink ([gc] captures GC deltas per span) and write the
   Chrome trace when asked.  Returns the engine, the device-resolved
   config and the result; [None] after printing why the compile could
   not run (exit 1). *)
let compile_one ~spec ~flow ~device_spec ~gc ~chrome config =
  match load spec with
  | exception Epoc_qasm.Qasm.Parse_error m ->
      Printf.eprintf "parse error: %s\n" m;
      None
  | exception Invalid_argument m ->
      Printf.eprintf "error: %s\n" m;
      None
  | circuit -> (
      let engine = Epoc.Engine.create ~config () in
      match
        Epoc.Config.resolve_device (Epoc.Engine.devices engine) device_spec
          config
      with
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          None
      | Ok config -> (
          match List.assoc_opt flow Epoc.Baselines.flows with
          | None ->
              Printf.eprintf "unknown flow %S\n" flow;
              None
          | Some compile ->
              let trace = T.create ~gc () in
              let result =
                compile
                  (Epoc.Engine.session ~config ~trace ~name:spec engine)
                  circuit
              in
              Option.iter
                (fun file ->
                  write_file file
                    (J.to_string ~indent:true
                       (T.to_chrome_json result.Epoc.Pipeline.trace));
                  Printf.eprintf "wrote chrome trace to %s\n" file)
                chrome;
              Some (engine, config, result)))

let report ~flow (r : Epoc.Pipeline.result) show =
  Printf.printf "flow             : %s\n" flow;
  Printf.printf "circuit          : %s\n" r.Epoc.Pipeline.name;
  Printf.printf "request          : %s\n" r.Epoc.Pipeline.request_id;
  Printf.printf "latency          : %.1f ns\n" r.Epoc.Pipeline.latency;
  Printf.printf "fidelity (ESP)   : %.4f\n" r.Epoc.Pipeline.esp;
  Printf.printf "pulses           : %d\n" r.Epoc.Pipeline.stats.Epoc.Pipeline.pulse_count;
  Printf.printf "depth            : %d -> %d%s\n"
    r.Epoc.Pipeline.stats.Epoc.Pipeline.input_depth
    r.Epoc.Pipeline.stats.Epoc.Pipeline.zx_depth
    (if r.Epoc.Pipeline.stats.Epoc.Pipeline.zx_used_graph then " (zx-graph)"
     else "");
  Printf.printf "blocks/synth     : %d / %d\n"
    r.Epoc.Pipeline.stats.Epoc.Pipeline.blocks
    r.Epoc.Pipeline.stats.Epoc.Pipeline.synthesized_blocks;
  Printf.printf "library          : %d entries, %d hits / %d misses%s\n"
    r.Epoc.Pipeline.library_stats.Epoc_pulse.Library.entries
    r.Epoc.Pipeline.library_stats.Epoc_pulse.Library.hits
    r.Epoc.Pipeline.library_stats.Epoc_pulse.Library.misses
    (match M.counter_value r.Epoc.Pipeline.metrics "cache.hits" with
    | 0 -> ""
    | c -> Printf.sprintf " (%d from persistent cache)" c);
  (let m = r.Epoc.Pipeline.metrics in
   match
     ( M.counter_value m "synth.cache.hits",
       M.counter_value m "synth.cache.misses" )
   with
   | 0, 0 -> ()
   | hits, misses ->
       Printf.printf "synth cache      : %d hits / %d misses\n" hits misses);
  (match r.Epoc.Pipeline.stats.Epoc.Pipeline.degraded_blocks with
  | 0 -> ()
  | d ->
      Printf.printf "degraded         : %d block(s) on gate pulses (%d retries)\n"
        d r.Epoc.Pipeline.stats.Epoc.Pipeline.retries);
  Printf.printf "compile time     : %.3f s\n" r.Epoc.Pipeline.compile_time;
  if show then Format.printf "@.%a@." Epoc_pulse.Schedule.pp r.Epoc.Pipeline.schedule

let compile_cmd =
  let run spec flow device_spec export_ir config strict verbosity schedule
      trace trace_json gc chrome =
    setup_logs verbosity;
    match compile_one ~spec ~flow ~device_spec ~gc ~chrome config with
    | None -> 1
    | Some (_, config, result) ->
        (match export_ir with
        | None -> ()
        | Some file ->
            write_file file
              (Epoc_pulseir.Pulseir.to_string
                 (Epoc_pulseir.Pulseir.export ?device:config.Epoc.Config.device
                    ~name:spec result.Epoc.Pipeline.schedule));
            Printf.eprintf "wrote pulse IR to %s\n" file);
        if trace_json then
          print_endline
            (J.to_string ~indent:true (T.to_json result.Epoc.Pipeline.trace))
        else begin
          report ~flow result schedule;
          if trace then Format.printf "@.%a@." T.pp result.Epoc.Pipeline.trace
        end;
        exit_status ~strict result
  in
  let term =
    Term.(
      const run $ circuit_arg $ flow_arg $ device_arg $ export_ir_arg
      $ config_term $ strict_arg $ verbose $ show_schedule $ show_trace
      $ show_trace_json $ trace_gc $ trace_chrome)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a circuit to a pulse schedule.") term

(* --- epoc report ---------------------------------------------------------- *)

(* Version of the report's JSON shape; tools consuming it (see
   tools/bench_compare.ml for the bench flavour) check this before
   parsing. *)
let report_schema_version = 1

let report_json ~flow (r : Epoc.Pipeline.result) ~process =
  J.Obj
    ([
       ("schema_version", J.of_int report_schema_version);
       ("name", J.Str r.Epoc.Pipeline.name);
     ]
    @ Epoc.Pipeline.summary ~flow r
    @ [
        ("stages", T.stages_json r.Epoc.Pipeline.trace);
        ("metrics", M.to_json r.Epoc.Pipeline.metrics);
        ("process", M.to_json process);
      ])

(* One histogram: count, sum (for [grape.iterations], the GRAPE
   iterations of the whole compile), mean and range. *)
let pp_hist_row name (h : M.hist_snapshot) =
  Printf.printf
    "  %-26s n=%-5d sum=%-12.6g mean=%-12.4g min=%-12.4g max=%-12.4g\n" name
    h.M.count h.M.sum (M.mean h)
    (if h.M.count = 0 then 0.0 else h.M.vmin)
    (if h.M.count = 0 then 0.0 else h.M.vmax)

let report_text ~flow (r : Epoc.Pipeline.result) metrics ~process =
  report ~flow r false;
  (* stage table: aggregated wall clock and GC per pass *)
  Printf.printf "\nstages (aggregated over candidates):\n";
  Printf.printf "  %-26s %5s %12s %12s %12s %7s\n" "stage" "calls" "wall ms"
    "minor kw" "major kw" "gc";
  List.iter
    (fun (row : T.agg_row) ->
      match row.T.agg_gc with
      | Some g ->
          Printf.printf "  %-26s %5d %12.3f %12.1f %12.1f %3d/%-3d\n"
            row.T.agg_name row.T.agg_calls
            (1e3 *. row.T.agg_wall_s)
            (g.T.minor_words /. 1e3)
            (g.T.major_words /. 1e3)
            g.T.minor_collections g.T.major_collections
      | None ->
          Printf.printf "  %-26s %5d %12.3f\n" row.T.agg_name row.T.agg_calls
            (1e3 *. row.T.agg_wall_s))
    (T.aggregate r.Epoc.Pipeline.trace);
  (* solver convergence telemetry *)
  Printf.printf "\nsolvers:\n";
  Printf.printf
    "  GRAPE: %d searches, %d runs; stop reasons: target=%d patience=%d \
     budget=%d\n"
    (M.counter_value metrics "grape.searches")
    (M.counter_value metrics "grape.runs")
    (M.counter_value metrics "grape.stop.target")
    (M.counter_value metrics "grape.stop.patience")
    (M.counter_value metrics "grape.stop.budget");
  Option.iter (pp_hist_row "grape.iterations") (M.hist_value metrics "grape.iterations");
  Option.iter
    (pp_hist_row "grape.final_infidelity")
    (M.hist_value metrics "grape.final_infidelity");
  (* solver throughput is engine-scoped (wall clock): the last solve's
     rate *)
  Option.iter
    (fun v -> Printf.printf "  GRAPE throughput: %.0f iters/s\n" v)
    (M.gauge_value process "grape.iters_per_s");
  Printf.printf
    "  QSearch: %d blocks, %d synthesized, %d prunes, open-set high water %s\n"
    (M.counter_value metrics "synth.blocks")
    (M.counter_value metrics "synth.synthesized")
    (M.counter_value metrics "qsearch.prunes")
    (match M.gauge_value metrics "qsearch.open_high_water" with
    | Some g -> Printf.sprintf "%.0f" g
    | None -> "-");
  Option.iter
    (pp_hist_row "qsearch.expansions")
    (M.hist_value metrics "qsearch.expansions");
  Option.iter
    (pp_hist_row "synth.cnots_per_block")
    (M.hist_value metrics "synth.cnots_per_block");
  (* full registry dump *)
  let dump title reg =
    let snap = M.snapshot reg in
    if snap <> [] then begin
      Printf.printf "\n%s:\n" title;
      List.iter
        (fun (name, v) ->
          match v with
          | M.Counter_v c -> Printf.printf "  %-26s %d\n" name c
          | M.Gauge_v g -> Printf.printf "  %-26s %.6g\n" name g
          | M.Hist_v h -> pp_hist_row name h)
        snap
    end
  in
  dump "metrics (per run)" metrics;
  dump "metrics (engine)" process

let report_cmd =
  let run spec flow device_spec config strict verbosity json prometheus chrome
      =
    setup_logs verbosity;
    match compile_one ~spec ~flow ~device_spec ~gc:true ~chrome config with
    | None -> 1
    | Some (engine, _, result) ->
        let metrics = result.Epoc.Pipeline.metrics in
        let process = Epoc.Engine.metrics engine in
        if prometheus then
          (* same exposition shape as the daemon's {"cmd":"prometheus"}:
             engine registry under epoc_, per-run values under epoc_run_ *)
          print_string
            (M.to_prometheus ~prefix:"epoc_" process
            ^ M.to_prometheus ~prefix:"epoc_run_" metrics)
        else if json then
          print_endline
            (J.to_string ~indent:true (report_json ~flow result ~process))
        else report_text ~flow result metrics ~process;
        exit_status ~strict result
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let prometheus_flag =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Emit the metric registries as Prometheus text exposition \
             (engine registry under epoc_, per-run registry under \
             epoc_run_; takes precedence over --json).")
  in
  let term =
    Term.(
      const run $ circuit_arg $ flow_arg $ device_arg $ config_term
      $ strict_arg $ verbose $ json_flag $ prometheus_flag $ trace_chrome)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Compile once and report stage timings with GC deltas, solver \
          convergence telemetry and the metrics registry.")
    term

(* --- epoc serve ----------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix socket path to listen on (JSONL job protocol)." in
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc)

let workers_arg =
  let doc = "Concurrent compile jobs (worker threads over one engine)." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let flight_arg =
  let doc =
    "Flight-recorder capacity: how many completed requests the daemon \
     retains for {\"cmd\":\"recent\"} / epoc top."
  in
  Arg.(value & opt int 64 & info [ "flight" ] ~docv:"N" ~doc)

let slow_trace_arg =
  let doc =
    "Slow threshold in seconds: a request compiling at least this long \
     gets its full Chrome trace captured in the flight recorder \
     (fetch with {\"cmd\":\"trace\",\"id\":...}).  0 traces everything."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-trace" ] ~docv:"SEC" ~doc)

let serve_cmd =
  let run socket workers flight slow_trace device_spec config verbosity =
    setup_logs verbosity;
    (* daemon-wide default device; jobs can override per request with
       {"device": ...}, resolved against the engine's registry *)
    match
      Epoc.Config.resolve_device (Epoc_device.Device.Registry.create ())
        device_spec config
    with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok config ->
        Epoc_serve.Server.run
          {
            Epoc_serve.Server.socket;
            workers;
            config;
            flight_capacity = max 1 flight;
            slow_trace_s = slow_trace;
          }
  in
  let term =
    Term.(
      const run $ socket_arg $ workers_arg $ flight_arg $ slow_trace_arg
      $ device_arg $ config_term $ verbose)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile daemon: one long-lived engine serving \
          concurrent JSONL compile requests over a Unix socket \
          (priority-ordered admission, per-request deadlines, graceful \
          drain on SIGTERM).")
    term

(* --- epoc top ------------------------------------------------------------- *)

(* One protocol round trip: connect, send each request line, read one
   response line per request.  The daemon answers commands inline in
   request order, so a plain line-for-line read is enough. *)
let rpc_lines socket lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      flush oc;
      List.map (fun _ -> input_line ic) lines)

let counter_of json path name =
  match
    Option.bind (J.member path json) (fun reg ->
        Option.bind (J.member "counters" reg) (J.member name))
  with
  | Some v -> Option.value ~default:0 (J.to_int v)
  | None -> 0

let gauge_of json path name =
  Option.bind (J.member path json) (fun reg ->
      Option.bind (J.member "gauges" reg) (fun g ->
          Option.bind (J.member name g) J.to_num))

let hist_mean_of json path name =
  Option.bind (J.member path json) (fun reg ->
      Option.bind (J.member "histograms" reg) (fun h ->
          Option.bind (J.member name h) (fun snap ->
              match
                ( Option.bind (J.member "count" snap) J.to_num,
                  Option.bind (J.member "sum" snap) J.to_num )
              with
              | Some c, Some s when c > 0.0 -> Some (s /. c)
              | _ -> None)))

let print_top metrics recent =
  let c = counter_of metrics "engine" in
  let g name = gauge_of metrics "engine" name in
  let h name = hist_mean_of metrics "engine" name in
  Printf.printf "jobs      : %d total (%d ok, %d degraded, %d error)\n"
    (c "serve.jobs") (c "serve.ok") (c "serve.degraded") (c "serve.error");
  Printf.printf "admission : %d admitted, %d rejected, %d drained\n"
    (c "serve.admitted") (c "serve.rejected") (c "serve.drained");
  Printf.printf "queue     : depth %.0f, in-flight %.0f\n"
    (Option.value ~default:0.0 (g "serve.queue_depth"))
    (Option.value ~default:0.0 (g "serve.in_flight"));
  (match (h "serve.queue_wait_seconds", h "serve.e2e_seconds") with
  | None, None -> ()
  | qw, e2e ->
      Printf.printf "latency   : mean wait %s, mean end-to-end %s\n"
        (match qw with Some v -> Printf.sprintf "%.3fs" v | None -> "-")
        (match e2e with Some v -> Printf.sprintf "%.3fs" v | None -> "-"));
  let entries =
    Option.value ~default:[]
      (Option.bind (J.member "recent" recent) J.to_list)
  in
  Printf.printf "recent    : %d held / %d recorded\n" (List.length entries)
    (match Option.bind (J.member "recorded" recent) J.to_int with
    | Some n -> n
    | None -> 0);
  if entries <> [] then begin
    Printf.printf "  %-6s %-10s %-8s %-6s %-7s %-12s %s\n" "id" "wall s"
      "status" "trace" "flow" "device" "name";
    List.iter
      (fun e ->
        let summary name =
          Option.value ~default:"-"
            (Option.bind (J.member "summary" e) (fun s ->
                 Option.bind (J.member name s) J.to_str))
        in
        Printf.printf "  %-6s %-10.3f %-8s %-6s %-7s %-12s %s\n"
          (Option.value ~default:"-" (Option.bind (J.member "id" e) J.to_str))
          (Option.value ~default:0.0
             (Option.bind (J.member "wall_s" e) J.to_num))
          (summary "status")
          (match J.member "trace_captured" e with
          | Some (J.Bool true) -> "yes"
          | _ -> "-")
          (summary "flow") (summary "device") (summary "name"))
      entries
  end

let top_cmd =
  let run socket watch =
    let cmd name = J.to_string (J.Obj [ ("cmd", J.Str name) ]) in
    let once () =
      match rpc_lines socket [ cmd "metrics"; cmd "recent" ] with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "epoc top: %s: %s\n" socket (Unix.error_message e);
          Error 1
      | exception End_of_file ->
          Printf.eprintf "epoc top: %s: connection closed\n" socket;
          Error 1
      | [ metrics_line; recent_line ] -> (
          match (J.parse metrics_line, J.parse recent_line) with
          | Ok metrics, Ok recent ->
              print_top metrics recent;
              Ok ()
          | Error m, _ | _, Error m ->
              Printf.eprintf "epoc top: bad response: %s\n" m;
              Error 1)
      | _ -> Error 1
    in
    match watch with
    | None -> ( match once () with Ok () -> 0 | Error c -> c)
    | Some period ->
        let period = Float.max 0.1 period in
        let rec loop () =
          (* clear + home, like top(1); errors end the watch *)
          print_string "\027[2J\027[H";
          match once () with
          | Error c -> c
          | Ok () ->
              flush stdout;
              Unix.sleepf period;
              loop ()
        in
        loop ()
  in
  let watch_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SEC"
          ~doc:"Refresh every $(docv) seconds until interrupted.")
  in
  let term = Term.(const run $ socket_arg $ watch_arg) in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Show the live status of a running epoc serve daemon: request \
          counters, queue depth, latency and the flight recorder's \
          recent requests.")
    term

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let c = Epoc_benchmarks.Benchmarks.find name in
        Printf.printf "%-12s %2d qubits, %3d gates, depth %d\n" name
          (Epoc_circuit.Circuit.n_qubits c)
          (Epoc_circuit.Circuit.gate_count c)
          (Epoc_circuit.Circuit.depth c))
      (Epoc_benchmarks.Benchmarks.names ());
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List builtin benchmark circuits.")
    Term.(const run $ const ())

(* --- epoc devices --------------------------------------------------------- *)

let devices_cmd =
  let run dump =
    let registry = Epoc_device.Device.Registry.create () in
    match dump with
    | Some spec -> (
        match Epoc_device.Device.Registry.resolve registry spec with
        | Ok d ->
            print_string (Epoc_device.Device.to_string d);
            0
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            1)
    | None ->
        List.iter
          (fun name ->
            match Epoc_device.Device.Registry.find registry name with
            | None -> ()
            | Some d ->
                Printf.printf "%-12s %3d qubits, %3d couplings, dt %.2f ns\n"
                  name d.Epoc_device.Device.n
                  (List.length d.Epoc_device.Device.edges)
                  d.Epoc_device.Device.dt)
          (Epoc_device.Device.Registry.names registry);
        0
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"NAME|FILE"
          ~doc:
            "Print the device-file JSON of one device instead of the list \
             (the exact bytes a file under devices/ holds).")
  in
  Cmd.v
    (Cmd.info "devices"
       ~doc:
         "List the bundled device zoo (or dump one device file with \
          --dump).")
    Term.(const run $ dump_arg)

(* --- epoc ir -------------------------------------------------------------- *)

let ir_cmd =
  let run file =
    match read_file file with
    | exception Sys_error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | text -> (
        match Epoc_pulseir.Pulseir.of_string text with
        | exception Invalid_argument m ->
            Printf.eprintf "error: %s\n" m;
            1
        | ir ->
            let reprinted = Epoc_pulseir.Pulseir.to_string ir in
            if reprinted <> text then begin
              Printf.eprintf
                "error: %s: import -> export is not byte-identical\n" file;
              1
            end
            else begin
              let s = ir.Epoc_pulseir.Pulseir.ir_schedule in
              Printf.printf "name     : %s\n" ir.Epoc_pulseir.Pulseir.ir_name;
              Printf.printf "device   : %s\n"
                (match ir.Epoc_pulseir.Pulseir.ir_device with
                | None -> "- (default chain model)"
                | Some (name, n) -> Printf.sprintf "%s (%d qubits)" name n);
              Printf.printf "qubits   : %d\n" s.Epoc_pulse.Schedule.n;
              Printf.printf "pulses   : %d\n"
                (Epoc_pulse.Schedule.instruction_count s);
              Printf.printf "latency  : %s ns\n"
                (J.number_to_string (Epoc_pulse.Schedule.latency s));
              0
            end)
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Pulse-IR JSON file to verify.")
  in
  Cmd.v
    (Cmd.info "ir"
       ~doc:
         "Validate a pulse-IR file: strict import, ASAP-consistency \
          checks and a byte-identical re-export.")
    Term.(const run $ file_arg)

let zx_cmd =
  let run spec verbosity =
    setup_logs verbosity;
    match load spec with
    | exception Epoc_qasm.Qasm.Parse_error m ->
        Printf.eprintf "parse error: %s\n" m;
        1
    | circuit ->
        let r = Epoc_zx.Zx.optimize ~objective:Epoc_zx.Zx.Depth circuit in
        Printf.printf "depth  : %d -> %d\n" r.Epoc_zx.Zx.input_depth
          r.Epoc_zx.Zx.output_depth;
        Printf.printf "gates  : %d -> %d\n" r.Epoc_zx.Zx.input_gates
          r.Epoc_zx.Zx.output_gates;
        Printf.printf "method : %s (verified=%b)\n"
          (match r.Epoc_zx.Zx.used with
          | Epoc_zx.Zx.Graph -> "zx-graph"
          | Epoc_zx.Zx.Peephole_only -> "peephole")
          r.Epoc_zx.Zx.verified;
        0
  in
  Cmd.v
    (Cmd.info "zx" ~doc:"Run only the graph-based optimization stage.")
    Term.(const run $ circuit_arg $ verbose)

let () =
  let info =
    Cmd.info "epoc" ~version:"1.0.0"
      ~doc:"EPOC: efficient pulse generation with advanced synthesis"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd; report_cmd; serve_cmd; top_cmd; list_cmd;
            devices_cmd; ir_cmd; zx_cmd;
          ]))
