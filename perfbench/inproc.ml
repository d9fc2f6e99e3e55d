(* In-process compiles the way [epoc compile] runs them: the CLI's
   default configuration (estimate mode unless GRAPE is asked for,
   partition width 3), a fresh engine per compile, the device resolved
   against the engine's zoo, then [Qasm.of_string] and the pipeline.
   The pool is pinned to one domain whatever [EPOC_JOBS] says. *)

open Epoc

let store_config ~grape store_dir =
  let base = Config.default in
  {
    base with
    Config.qoc_mode = (if grape then Config.Grape else Config.Estimate);
    partition =
      { base.Config.partition with Epoc_partition.Partition.qubit_limit = 3 };
    cache_dir = Option.map (fun d -> Filename.concat d "pulses") store_dir;
    synth_cache_dir = Option.map (fun d -> Filename.concat d "synth") store_dir;
  }

(* [config] retargeted at the input's zoo device, if it names one. *)
let config_for engine config (inp : Gen.input) =
  match inp.Gen.device with
  | None -> (config, None)
  | Some name -> (
      match
        Epoc_device.Device.Registry.find (Engine.devices engine) name
      with
      | Some d -> (Config.with_device d config, Some d)
      | None -> invalid_arg ("unknown zoo device " ^ name))

let span spans name f =
  match spans with None -> f () | Some t -> Spans.with_span t name f

(* Parse [inp] and compile it on [engine] (in a fresh session, with a
   private [library] when one is given).  With [spans] every layer call
   is traced and the compile runs the traced flow.  Returns the result
   and the device it targeted. *)
let compile_on ?spans ?library engine ~grape (inp : Gen.input) =
  let config, device = config_for engine (store_config ~grape None) inp in
  let circuit = span spans "qasm" (fun () -> Epoc_qasm.Qasm.of_string inp.Gen.qasm) in
  let session = Engine.session ~config ?library ~name:inp.Gen.name engine in
  let r =
    span spans "compile" (fun () ->
        match spans with
        | None -> Pipeline.compile session circuit
        | Some t -> Pipeline.compile_flow session (Spans.flow t) circuit)
  in
  (r, device)

(* A one-shot compile: a fresh engine, then [compile_on].  The engine is
   returned for warm repeats. *)
let compile ?spans ~grape inp =
  let engine =
    span spans "engine" (fun () ->
        Engine.create ~domains:1 ~config:(store_config ~grape None) ())
  in
  let r, device = compile_on ?spans engine ~grape inp in
  (engine, r, device)

(* Counter of the per-run registry, 0 when absent. *)
let counter (r : Pipeline.result) name =
  Epoc_obs.Metrics.counter_value r.Pipeline.metrics name

(* Sum of a per-run histogram, 0 when absent. *)
let hist_sum (r : Pipeline.result) name =
  match Epoc_obs.Metrics.hist_value r.Pipeline.metrics name with
  | Some h -> h.Epoc_obs.Metrics.sum
  | None -> 0.0

