(* Persistent pulse cache tests: on-disk round-trip, corruption and
   header-mismatch tolerance, append-only flushes under concurrent
   writers, GRAPE warm starts from cached near-neighbors, and the cached
   pipeline's domain-count determinism. *)

open Epoc
open Epoc_linalg
open Epoc_circuit
open Epoc_qoc
module Store = Epoc_cache.Store
module Library = Epoc_pulse.Library
module M = Epoc_obs.Metrics

let tmp_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "epoc-test-cache-%d-%s" (Unix.getpid ()) name)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let records_path dir = Filename.concat dir "pulses.jsonl"

let x_pulse =
  {
    Grape.dt = 0.5;
    labels = [| "x0"; "y0" |];
    amplitudes = [| [| 0.1; 0.2; 0.3 |]; [| -0.1; 0.0; 0.25 |] |];
  }

(* A probe keyed as pulse resolution keys a job: canonical form and key
   once, under [lib]'s matching convention (EPOC's phase-invariant one
   unless a test passes another library). *)
let invariant = Library.create ()

let keyed ?(lib = invariant) ?(context = "") u =
  let cu = Library.canonicalize lib u in
  (cu, Library.key ~context cu)

let store_find ?(lib = invariant) ?context s u =
  let cu, key = keyed ~lib ?context u in
  Store.find s ~key ~matches:(Library.matches lib) cu

let store_record ?lib ?(context = "") s u ~duration ~fidelity ?pulse () =
  let cu, key = keyed ?lib ~context u in
  Store.record s ~key
    { Library.unitary = cu; duration; fidelity; pulse; context }

(* --- round-trip ----------------------------------------------------------- *)

let test_roundtrip () =
  let dir = tmp_dir "roundtrip" in
  let x = Gate.matrix Gate.X in
  let s = Store.open_dir dir in
  store_record s x ~duration:12.5 ~fidelity:0.9991 ~pulse:x_pulse ();
  Alcotest.(check int) "pending before flush" 1 (Store.pending_count s);
  Store.flush s;
  Alcotest.(check int) "pending after flush" 0 (Store.pending_count s);
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "reloaded" 1 (Store.loaded_count s2);
  (match store_find s2 x with
  | None -> Alcotest.fail "exact hit missing after reopen"
  | Some e ->
      Alcotest.(check (float 1e-12)) "duration" 12.5 e.Library.duration;
      Alcotest.(check (float 1e-12)) "fidelity" 0.9991 e.Library.fidelity;
      match e.Library.pulse with
      | None -> Alcotest.fail "pulse lost"
      | Some p ->
          Alcotest.(check bool) "amplitudes survive" true
            (p.Grape.amplitudes = x_pulse.Grape.amplitudes);
          Alcotest.(check bool) "labels survive" true
            (p.Grape.labels = x_pulse.Grape.labels));
  (* global-phase-invariant match: i*X hits the X entry *)
  let ix = Mat.scale (Cx.make 0.0 1.0) x in
  Alcotest.(check bool) "phase-rotated probe hits" true
    (store_find s2 ix <> None);
  rm_rf dir

(* --- corruption tolerance -------------------------------------------------- *)

let test_corrupt_trailing () =
  let dir = tmp_dir "corrupt" in
  let s = Store.open_dir dir in
  store_record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  store_record s (Gate.matrix Gate.H) ~duration:11.0 ~fidelity:0.998 ();
  Store.flush s;
  (* a torn trailing write: half a JSON record *)
  let oc = open_out_gen [ Open_append ] 0o644 (records_path dir) in
  output_string oc "{\"key\": \"dead\", \"dim\": 2, \"dura";
  close_out oc;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "valid records load" 2 (Store.loaded_count s2);
  Alcotest.(check int) "torn record skipped" 1 (Store.skipped_count s2);
  Alcotest.(check bool) "entries still found" true
    (store_find s2 (Gate.matrix Gate.H) <> None);
  (* the next flush drops the torn line from disk *)
  store_record s2 (Gate.matrix Gate.Y) ~duration:12.0 ~fidelity:0.997 ();
  Store.flush s2;
  let s3 = Store.open_dir dir in
  Alcotest.(check int) "flush rewrote cleanly" 3 (Store.loaded_count s3);
  Alcotest.(check int) "no skips after rewrite" 0 (Store.skipped_count s3);
  rm_rf dir

let test_header_mismatch () =
  let dir = tmp_dir "header" in
  let s = Store.open_dir dir in
  store_record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  Store.flush s;
  (* rewrite the header as a future schema version: the records must be
     ignored, not mis-parsed *)
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin (records_path dir) In_channel.input_all)
  in
  let oc = open_out (records_path dir) in
  output_string oc
    "{\"format\": \"epoc-pulse-cache\",\"schema_version\": 99,\
     \"match_global_phase\": true}\n";
  List.iter
    (fun l -> if String.trim l <> "" then (output_string oc l; output_char oc '\n'))
    (List.tl lines);
  close_out oc;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "foreign store starts empty" 0 (Store.loaded_count s2);
  Alcotest.(check bool) "no hit from foreign records" true
    (store_find s2 (Gate.matrix Gate.X) = None);
  (* recording + flushing rewrites the store under the current header *)
  store_record s2 (Gate.matrix Gate.H) ~duration:11.0 ~fidelity:0.998 ();
  Store.flush s2;
  let s3 = Store.open_dir dir in
  Alcotest.(check int) "rewritten store loads" 1 (Store.loaded_count s3);
  rm_rf dir

(* --- phase conventions -------------------------------------------------------- *)

(* The store has no phase convention of its own.  A file whose header
   carries the [match_global_phase] field older builds wrote, with
   either value, opens with every record loaded and answers the keys
   its records were written under: phase-invariant records and a
   phase-sensitive one (iX under its own key) alike. *)
let test_header_phase_field_ignored () =
  let sensitive = Library.create ~match_global_phase:false () in
  let x = Gate.matrix Gate.X and h = Gate.matrix Gate.H in
  let ix = Mat.scale (Cx.make 0.0 1.0) x in
  List.iter
    (fun phase ->
      let label = Printf.sprintf "match_global_phase %b" phase in
      let dir = tmp_dir ("phase-field-" ^ string_of_bool phase) in
      let s = Store.open_dir dir in
      store_record s x ~duration:10.0 ~fidelity:0.999 ();
      store_record s h ~duration:11.0 ~fidelity:0.998 ();
      store_record ~lib:sensitive s ix ~duration:12.0 ~fidelity:0.997 ();
      Store.flush s;
      let records =
        List.tl
          (String.split_on_char '\n'
             (In_channel.with_open_bin (records_path dir) In_channel.input_all))
      in
      let oc = open_out (records_path dir) in
      Printf.fprintf oc
        "{\"format\": \"epoc-pulse-cache\",\"schema_version\": %d,\
         \"match_global_phase\": %b}\n"
        Store.schema_version phase;
      List.iter
        (fun l ->
          if String.trim l <> "" then (output_string oc l; output_char oc '\n'))
        records;
      close_out oc;
      let s2 = Store.open_dir dir in
      Alcotest.(check int) (label ^ ": every record loads") 3
        (Store.loaded_count s2);
      let duration ?lib u =
        Option.map (fun e -> e.Library.duration) (store_find ?lib s2 u)
      in
      Alcotest.(check (option (float 0.0))) (label ^ ": x") (Some 10.0)
        (duration x);
      Alcotest.(check (option (float 0.0))) (label ^ ": h") (Some 11.0)
        (duration h);
      Alcotest.(check (option (float 0.0))) (label ^ ": phase-sensitive ix")
        (Some 12.0) (duration ~lib:sensitive ix);
      rm_rf dir)
    [ false; true ]

(* A record sits under the fingerprint of the matrix it holds, so a
   phase-sensitive probe only meets records that quantize like its own
   matrix, phase included: a phase-invariant record for X answers a
   phase-invariant probe for iX but not a phase-sensitive one, in memory
   and after reopening. *)
let test_phase_sensitive_probe () =
  let dir = tmp_dir "phase-probe" in
  let sensitive = Library.create ~match_global_phase:false () in
  let x = Gate.matrix Gate.X in
  let ix = Mat.scale (Cx.make 0.0 1.0) x in
  let s = Store.open_dir dir in
  store_record s x ~duration:10.0 ~fidelity:0.999 ();
  Store.flush s;
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool) (label ^ ": phase-invariant probe hits") true
        (store_find s ix <> None);
      Alcotest.(check bool) (label ^ ": phase-sensitive probe misses") true
        (store_find ~lib:sensitive s ix = None))
    [ ("recorded", s); ("reopened", Store.open_dir dir) ];
  rm_rf dir

(* --- concurrent writers ---------------------------------------------------- *)

let test_lock_contention () =
  let dir = tmp_dir "lock" in
  ignore (Store.open_dir dir);
  (* two writers (separate Store handles, as two concurrent `epoc`
     invocations would hold) record disjoint entries and flush
     concurrently; the merged file must hold the union *)
  let angles_a = [ 0.3; 0.6; 0.9; 1.2 ] in
  let angles_b = [ 1.5; 1.8; 2.1; 2.4 ] in
  let writer angles =
    Domain.spawn (fun () ->
        let s = Store.open_dir dir in
        List.iter
          (fun a ->
            store_record s
              (Gate.matrix (Gate.RX a))
              ~duration:(10.0 +. a) ~fidelity:0.999 ();
            Store.flush s)
          angles)
  in
  let da = writer angles_a and db = writer angles_b in
  Domain.join da;
  Domain.join db;
  let s = Store.open_dir dir in
  Alcotest.(check int) "union of both writers" 8 (Store.loaded_count s);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "rx(%.1f) present" a)
        true
        (store_find s (Gate.matrix (Gate.RX a)) <> None))
    (angles_a @ angles_b);
  rm_rf dir

(* --- near-hit matching ------------------------------------------------------ *)

let test_nearest () =
  let dir = tmp_dir "nearest" in
  let s = Store.open_dir dir in
  store_record s (Gate.matrix Gate.X) ~duration:12.5 ~fidelity:0.999
    ~pulse:x_pulse ();
  (* RX(2.8) is close to X = RX(pi) up to global phase (hs distance ~0.015) *)
  let probe = Gate.matrix (Gate.RX 2.8) in
  (match Store.nearest s probe with
  | None -> Alcotest.fail "near neighbor not found"
  | Some (e, d) ->
      Alcotest.(check bool) "distance small" true (d < 0.05);
      Alcotest.(check bool) "neighbor carries the pulse" true
        (e.Library.pulse <> None));
  Alcotest.(check bool) "tight bound rejects" true
    (Store.nearest ~max_distance:1e-4 s probe = None);
  (* entries without amplitudes never qualify as warm starts *)
  store_record s (Gate.matrix Gate.H) ~duration:9.0 ~fidelity:0.999 ();
  Alcotest.(check bool) "pulse-less entry skipped" true
    (Store.nearest s (Gate.matrix Gate.H) = None);
  rm_rf dir

(* --- hardware contexts ------------------------------------------------------ *)

(* A record answers only probes under its own hardware context, and two
   records differing only in context are distinct on disk. *)
let test_context_scoping () =
  let dir = tmp_dir "context" in
  let cx = Gate.matrix Gate.CX in
  let dev =
    (Hardware.of_device (Epoc_device.Device.grid ~rows:3 ~cols:3 ())
       ~qubits:[ 0; 1 ])
      .Hardware.context
  in
  let s = Store.open_dir dir in
  store_record ~context:dev s cx ~duration:50.0 ~fidelity:0.999
    ~pulse:x_pulse ();
  Alcotest.(check bool) "device record ignores default probes" true
    (store_find s cx = None && Store.nearest s cx = None);
  store_record s (Gate.matrix Gate.CZ) ~duration:55.0 ~fidelity:0.998
    ~pulse:x_pulse ();
  Alcotest.(check bool) "default record ignores device probes" true
    (store_find ~context:dev s (Gate.matrix Gate.CZ) = None
    && Store.nearest ~context:dev s (Gate.matrix Gate.CZ) = None);
  store_record s cx ~duration:60.0 ~fidelity:0.997 ();
  Store.flush s;
  Alcotest.(check int) "records differing in context both land" 3
    (Store.merged_count s);
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "both survive reopen" 3 (Store.loaded_count s2);
  let duration ?context () =
    Option.map (fun e -> e.Library.duration) (store_find ?context s2 cx)
  in
  Alcotest.(check (option (float 0.0))) "device entry" (Some 50.0)
    (duration ~context:dev ());
  Alcotest.(check (option (float 0.0))) "default entry" (Some 60.0)
    (duration ());
  rm_rf dir

(* Two calibrations sharing a device name never answer each other's
   probes: a device context carries a digest of the whole device, so a
   recalibrated device (other coupling strengths, or drive) misses the
   records solved on the original, in the store and through pipeline
   runs sharing one store. *)
let test_recalibrated_device () =
  let grid ?coupling_ghz ?drive_ghz () =
    Epoc_device.Device.grid ?coupling_ghz ?drive_ghz ~rows:3 ~cols:3 ()
  in
  let base = grid () in
  let recalibrated = [ grid ~coupling_ghz:0.006 (); grid ~drive_ghz:0.06 () ] in
  List.iter
    (fun (d : Epoc_device.Device.t) ->
      Alcotest.(check string) "same name" base.name d.name)
    recalibrated;
  let context d = (Hardware.of_device d ~qubits:[ 0; 1 ]).Hardware.context in
  let cx = Gate.matrix Gate.CX in
  let dir = tmp_dir "recalibrated" in
  let s = Store.open_dir dir in
  store_record ~context:(context base) s cx ~duration:50.0 ~fidelity:0.999
    ~pulse:x_pulse ();
  Alcotest.(check bool) "original answers its own probe" true
    (store_find ~context:(context base) s cx <> None);
  List.iter
    (fun d ->
      Alcotest.(check bool) "recalibration misses the original" true
        (store_find ~context:(context d) s cx = None
        && Store.nearest ~context:(context d) s cx = None))
    recalibrated;
  rm_rf dir;
  let dir = tmp_dir "recalibrated-pipeline" in
  let circuit = Epoc_benchmarks.Benchmarks.find "qaoa" in
  let run d =
    let cfg =
      Config.with_device d { Config.default with Config.cache_dir = Some dir }
    in
    let metrics = M.create () in
    ignore
      (Pipeline.compile
         (Engine.session ~config:cfg ~metrics ~name:"qaoa"
            (Engine.create ~config:cfg ()))
         circuit);
    ( M.counter_value metrics "cache.hits",
      M.counter_value metrics "cache.misses" )
  in
  ignore (run base);
  List.iter
    (fun d ->
      let hits, misses = run d in
      Alcotest.(check int) "recalibrated run hits nothing" 0 hits;
      Alcotest.(check bool) "recalibrated run misses" true (misses > 0))
    recalibrated;
  let hits, misses = run base in
  Alcotest.(check bool) "original still hits" true (hits > 0);
  Alcotest.(check int) "original fully cached" 0 misses;
  rm_rf dir

(* --- GRAPE warm start ------------------------------------------------------- *)

(* A GRAPE solve that must not error. *)
let optimize ?options hw ~target ~slots =
  match Grape.optimize_r ?options hw ~target ~slots with
  | Ok r -> r
  | Error e -> Alcotest.failf "GRAPE failed: %s" (Epoc_error.to_string e)

let test_grape_warm_start () =
  let hw = Hardware.make 1 in
  (* converge a pulse for X, then reuse its amplitudes as the starting
     point for the nearby RX(2.8) under a small iteration budget: the
     warm start must do at least as well as the random cold start *)
  let solved_x = optimize hw ~target:(Gate.matrix Gate.X) ~slots:24 in
  Alcotest.(check bool) "x converged" true (solved_x.Grape.fidelity > 0.99);
  Alcotest.(check bool) "cold start reported" false solved_x.Grape.warm_start;
  let target = Gate.matrix (Gate.RX 2.8) in
  (* a budget small enough that a random start cannot converge, so the
     head start is what decides the outcome *)
  let budget =
    { Grape.default_options with Grape.iterations = 4; patience = 4 }
  in
  let cold = optimize ~options:budget hw ~target ~slots:24 in
  let warm =
    optimize
      ~options:
        {
          budget with
          Grape.init = Some solved_x.Grape.pulse.Grape.amplitudes;
        }
      hw ~target ~slots:24
  in
  Alcotest.(check bool) "warm start reported" true warm.Grape.warm_start;
  Alcotest.(check bool) "warm >= cold under the same budget" true
    (warm.Grape.fidelity +. 1e-9 >= cold.Grape.fidelity);
  Alcotest.(check bool) "warm start is already close" true
    (warm.Grape.fidelity > 0.95);
  (* a control-count mismatch falls back to the cold start *)
  let bad_init = [| [| 0.1; 0.2 |] |] in
  let fallback =
    optimize
      ~options:{ budget with Grape.init = Some bad_init }
      hw ~target ~slots:24
  in
  Alcotest.(check bool) "mismatched init ignored" false
    fallback.Grape.warm_start

(* --- cached pipeline -------------------------------------------------------- *)

(* Second run against the same store resolves every distinct unitary from
   disk: cache.hits > 0, no misses, and the identical schedule.  dnn has
   library entries whose phase canonicalization is near-tied (they are
   persisted as-is, so the warm probes compute the stored keys); on
   grid3x3 the records carry the device blocks' hardware contexts. *)
let test_pipeline_warm_run () =
  let grid3x3 = Epoc_device.Device.grid ~rows:3 ~cols:3 () in
  List.iter
    (fun (name, device) ->
      let label =
        name ^ match device with None -> "" | Some _ -> "@grid3x3"
      in
      let dir = tmp_dir ("pipeline-" ^ label) in
      let cfg = { Config.default with Config.cache_dir = Some dir } in
      let cfg =
        match device with None -> cfg | Some d -> Config.with_device d cfg
      in
      let circuit = Epoc_benchmarks.Benchmarks.find name in
      let run () =
        let metrics = M.create () in
        let r =
          Pipeline.compile
            (Engine.session ~config:cfg ~metrics ~name
               (Engine.create ~config:cfg ()))
            circuit
        in
        (r, metrics)
      in
      let cold, cold_m = run () in
      Alcotest.(check int) (label ^ ": cold run has no hits") 0
        (M.counter_value cold_m "cache.hits");
      Alcotest.(check bool) (label ^ ": cold run misses") true
        (M.counter_value cold_m "cache.misses" > 0);
      let warm, warm_m = run () in
      Alcotest.(check bool) (label ^ ": warm run hits") true
        (M.counter_value warm_m "cache.hits" > 0);
      Alcotest.(check int) (label ^ ": warm run fully cached") 0
        (M.counter_value warm_m "cache.misses");
      Alcotest.(check bool) (label ^ ": schedule identical") true
        (cold.Pipeline.schedule = warm.Pipeline.schedule);
      Alcotest.(check bool) (label ^ ": esp identical") true
        (cold.Pipeline.esp = warm.Pipeline.esp);
      rm_rf dir)
    [ ("qaoa", None); ("dnn", None); ("qaoa", Some grid3x3) ]

(* The cached (warm) pipeline obeys the pipeline determinism contract:
   bit-identical results for any domain count.  GRAPE mode, so store
   probes, warm starts and pulse reuse are all on the hot path. *)
let test_warm_run_domain_determinism () =
  let dir = tmp_dir "determinism" in
  let circuit = Epoc_benchmarks.Benchmarks.find "bb84" in
  let cfg = { Config.grape with Config.cache_dir = Some dir } in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~name:"bb84" (Engine.create ~config:cfg ()))
       circuit);
  let run domains =
    let pool = Epoc_parallel.Pool.create ~domains () in
    let metrics = M.create () in
    let r =
      Pipeline.compile
        (Engine.session ~config:cfg ~metrics ~name:"bb84"
           (Engine.create ~config:cfg ~pool ()))
        circuit
    in
    Alcotest.(check bool)
      (Printf.sprintf "%d-domain warm run hits" domains)
      true
      (M.counter_value metrics "cache.hits" > 0);
    ( r.Pipeline.latency,
      r.Pipeline.esp,
      r.Pipeline.stats,
      r.Pipeline.library_stats,
      M.counter_value metrics "cache.hits" )
  in
  Alcotest.(check bool) "1 vs 4 domains identical" true (run 1 = run 4);
  rm_rf dir

(* --- QoC-mode scoping ---------------------------------------------------------- *)

(* Estimate-mode and GRAPE-mode compiles share one store without
   answering each other's probes: an estimate record is a priced block,
   not a solved pulse, so a GRAPE run on a store an estimate run filled
   solves every block afresh, and an estimate run never reads a GRAPE
   latency.  Each run matches a compile without the other mode's
   records. *)
let test_mode_scoping () =
  let circuit = Epoc_benchmarks.Benchmarks.find "bb84" in
  let compile ?dir (base : Config.t) =
    let cfg = { base with Config.cache_dir = dir } in
    let metrics = M.create () in
    let r =
      Pipeline.compile
        (Engine.session ~config:cfg ~metrics ~name:"bb84"
           (Engine.create ~config:cfg ()))
        circuit
    in
    (r, metrics)
  in
  let same label (want : Pipeline.result) (got : Pipeline.result) =
    Alcotest.(check (float 0.0)) (label ^ ": latency") want.Pipeline.latency
      got.Pipeline.latency;
    Alcotest.(check (float 0.0)) (label ^ ": esp") want.Pipeline.esp
      got.Pipeline.esp;
    Alcotest.(check bool) (label ^ ": schedule identical") true
      (want.Pipeline.schedule = got.Pipeline.schedule)
  in
  (* GRAPE on a fresh store, then estimate on the same store *)
  let grape_dir = tmp_dir "mode-grape-first" in
  let fresh_grape, _ = compile ~dir:grape_dir Config.grape in
  let estimate, _ = compile ~dir:grape_dir Config.default in
  let storeless, _ = compile Config.default in
  same "estimate after GRAPE" storeless estimate;
  rm_rf grape_dir;
  (* estimate first, then GRAPE on the same store *)
  let estimate_dir = tmp_dir "mode-estimate-first" in
  ignore (compile ~dir:estimate_dir Config.default);
  let grape, grape_m = compile ~dir:estimate_dir Config.grape in
  Alcotest.(check int) "GRAPE after estimate: no hits" 0
    (M.counter_value grape_m "cache.hits");
  same "GRAPE after estimate" fresh_grape grape;
  rm_rf estimate_dir

(* --- merged-entry accounting ------------------------------------------------ *)

(* [merged_count] is the distinct on-disk record count after a flush —
   the number the pipeline reports as cache.entries.  It must not count
   skipped (torn) lines, and two handles recording the same unitary must
   merge to one record. *)
let test_merged_count () =
  let dir = tmp_dir "merged" in
  let s = Store.open_dir dir in
  store_record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  store_record s (Gate.matrix Gate.H) ~duration:11.0 ~fidelity:0.998 ();
  Store.flush s;
  Alcotest.(check int) "two distinct records" 2 (Store.merged_count s);
  (* a torn trailing write must not inflate the merged count *)
  let oc = open_out_gen [ Open_append ] 0o644 (records_path dir) in
  output_string oc "{\"key\": \"dead\", \"dim\": 2, \"dura";
  close_out oc;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "torn line skipped" 1 (Store.skipped_count s2);
  store_record s2 (Gate.matrix Gate.Y) ~duration:12.0 ~fidelity:0.997 ();
  Store.flush s2;
  Alcotest.(check int) "merged excludes the torn line" 3
    (Store.merged_count s2);
  (* two handles, same unitary (different metadata): one on-disk record *)
  let a = Store.open_dir dir and b = Store.open_dir dir in
  store_record a (Gate.matrix Gate.Z) ~duration:13.0 ~fidelity:0.996 ();
  store_record b (Gate.matrix Gate.Z) ~duration:14.0 ~fidelity:0.995 ();
  Store.flush a;
  Store.flush b;
  Alcotest.(check int) "same unitary merges to one record" 4
    (Store.merged_count b);
  let s3 = Store.open_dir dir in
  Alcotest.(check int) "reload agrees" 4 (Store.loaded_count s3);
  rm_rf dir

(* bench:iswap holds blocks whose canonical forms are equal within the
   matcher's epsilon but quantize to different keys.  A flush that
   deduplicated across key buckets kept one record of such a pair, and
   every reopened store then missed the probe that computes the other
   key (2 hits and 1 miss on each warm run).  Estimate mode, like the
   CLI default. *)
let test_near_tied_records_survive_flush () =
  let dir = tmp_dir "near-tied" in
  let cfg = { Config.default with Config.cache_dir = Some dir } in
  let circuit = Epoc_benchmarks.Benchmarks.find "iswap" in
  let run () =
    let metrics = M.create () in
    ignore
      (Pipeline.compile
         (Engine.session ~config:cfg ~metrics ~name:"iswap"
            (Engine.create ~config:cfg ()))
         circuit);
    metrics
  in
  let cold = run () in
  let misses = M.counter_value cold "cache.misses" in
  Alcotest.(check bool) "cold run misses" true (misses > 0);
  let warm = run () in
  Alcotest.(check int) "reopened store answers every probe" 0
    (M.counter_value warm "cache.misses");
  Alcotest.(check int) "one hit per cold miss" misses
    (M.counter_value warm "cache.hits");
  Alcotest.(check int) "one record per cold miss" misses
    (Store.loaded_count (Store.open_dir dir));
  rm_rf dir

(* --- append-only flush ---------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let record_lines contents =
  List.length
    (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents))
  - 1

let inode path = (Unix.stat path).Unix.st_ino

(* A flush appends its new records to the file it found: the inode and
   every byte before them stay, and exactly one line per new record
   follows, from the recording handle and from a handle opened later. *)
let test_flush_appends () =
  let dir = tmp_dir "append" in
  let path = records_path dir in
  let s = Store.open_dir dir in
  store_record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  store_record s (Gate.matrix Gate.H) ~duration:11.0 ~fidelity:0.998 ();
  Store.flush s;
  let appends label s gates =
    let before = read_file path and ino = inode path in
    List.iteri
      (fun i g ->
        store_record s (Gate.matrix g) ~duration:(20.0 +. float_of_int i)
          ~fidelity:0.99 ())
      gates;
    Store.flush s;
    let after = read_file path in
    Alcotest.(check int) (label ^ ": same inode") ino (inode path);
    Alcotest.(check string) (label ^ ": earlier bytes kept") before
      (String.sub after 0 (min (String.length before) (String.length after)));
    Alcotest.(check int) (label ^ ": one line per new record")
      (List.length gates)
      (record_lines after - record_lines before)
  in
  appends "recording handle" s [ Gate.Y; Gate.Z ];
  appends "reopened handle" (Store.open_dir dir) [ Gate.S; Gate.T ];
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "every record reloads" 6 (Store.loaded_count s2);
  Alcotest.(check int) "nothing skipped" 0 (Store.skipped_count s2);
  rm_rf dir

(* A file replaced under an open handle (a valid store renamed into
   place, as builds that merged by rewriting did) is read from its header
   at the handle's next flush: its records survive and join the handle,
   and neither a record the handle flushed before nor a pending one the
   new file already holds is written again. *)
let test_replaced_file () =
  let dir = tmp_dir "replaced" and other = tmp_dir "replacement" in
  let x = Gate.matrix Gate.X and h = Gate.matrix Gate.H in
  let y = Gate.matrix Gate.Y and z = Gate.matrix Gate.Z in
  let s = Store.open_dir dir in
  store_record s x ~duration:10.0 ~fidelity:0.999 ();
  Store.flush s;
  store_record s z ~duration:13.0 ~fidelity:0.996 ();
  let r = Store.open_dir other in
  store_record r x ~duration:20.0 ~fidelity:0.99 ();
  store_record r h ~duration:21.0 ~fidelity:0.99 ();
  store_record r z ~duration:23.0 ~fidelity:0.99 ();
  Store.flush r;
  let ino = inode (records_path dir) in
  Unix.rename (records_path other) (records_path dir);
  Alcotest.(check bool) "file replaced" true (inode (records_path dir) <> ino);
  store_record s y ~duration:12.0 ~fidelity:0.997 ();
  Store.flush s;
  Alcotest.(check int) "handle counts the replacing records" 4
    (Store.merged_count s);
  Alcotest.(check bool) "replacing record joins the handle" true
    (store_find s h <> None);
  Alcotest.(check int) "no record written twice" 4
    (record_lines (read_file (records_path dir)));
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "every record reloads" 4 (Store.loaded_count s2);
  let duration u =
    Option.map (fun e -> e.Library.duration) (store_find s2 u)
  in
  Alcotest.(check (option (float 0.0))) "replacing x survives" (Some 20.0)
    (duration x);
  Alcotest.(check (option (float 0.0))) "replacing z survives" (Some 23.0)
    (duration z);
  Alcotest.(check (option (float 0.0))) "new y appended" (Some 12.0)
    (duration y);
  rm_rf dir;
  rm_rf other

(* A file rewritten in place (same inode) under another schema's header,
   and grown past what an open handle had read, is read from its header
   at that handle's next flush: the foreign records are quarantined, not
   appended to. *)
let test_rewritten_in_place () =
  let dir = tmp_dir "in-place" in
  let s = Store.open_dir dir in
  store_record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  Store.flush s;
  let ino = inode (records_path dir) in
  let oc = open_out (records_path dir) in
  output_string oc
    "{\"format\": \"epoc-pulse-cache\",\"schema_version\": 99}\n";
  for i = 1 to 20 do
    Printf.fprintf oc "{\"key\": \"future-%d\", \"shape\": \"unknown\"}\n" i
  done;
  close_out oc;
  Alcotest.(check int) "same inode" ino (inode (records_path dir));
  store_record s (Gate.matrix Gate.Y) ~duration:12.0 ~fidelity:0.997 ();
  Store.flush s;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "file rewritten under this build's header" 1
    (Store.loaded_count s2);
  Alcotest.(check int) "no foreign line kept" 0 (Store.skipped_count s2);
  Alcotest.(check bool) "pending record landed" true
    (store_find s2 (Gate.matrix Gate.Y) <> None);
  rm_rf dir

(* [record] racing [flush] on one handle.  A record queued while another
   domain's flush writes must wait for the next flush, not be dropped
   with the written ones.  First two domains share a handle, each
   recording distinct entries and flushing after every one; then one
   domain records while another flushes in a loop. *)
let test_record_races_flush () =
  let rx base i = Gate.matrix (Gate.RX (base +. (0.01 *. float_of_int i))) in
  let check_all label dir s n =
    Store.flush s;
    Alcotest.(check int) (label ^ ": nothing left pending") 0
      (Store.pending_count s);
    Alcotest.(check int) (label ^ ": every record flushed") n
      (Store.merged_count s);
    Alcotest.(check int) (label ^ ": every record reloads") n
      (Store.loaded_count (Store.open_dir dir));
    rm_rf dir
  in
  let dir = tmp_dir "race" in
  let s = Store.open_dir dir in
  let writer base =
    Domain.spawn (fun () ->
        for i = 0 to 299 do
          store_record s (rx base i) ~duration:10.0 ~fidelity:0.999 ();
          Store.flush s
        done)
  in
  let a = writer 0.0 and b = writer 3.0 in
  Domain.join a;
  Domain.join b;
  check_all "flush after each record" dir s 600;
  let dir = tmp_dir "race-loop" in
  let s = Store.open_dir dir in
  let recording = Atomic.make true and flushing = Atomic.make false in
  let flusher =
    Domain.spawn (fun () ->
        while Atomic.get recording do
          Store.flush s;
          Atomic.set flushing true
        done)
  in
  while not (Atomic.get flushing) do
    Domain.cpu_relax ()
  done;
  for i = 0 to 599 do
    store_record s (rx 0.0 i) ~duration:10.0 ~fidelity:0.999 ()
  done;
  Atomic.set recording false;
  Domain.join flusher;
  check_all "flushing in a loop" dir s 600

(* Random interleavings of [record], [flush] and reopening on 2-3
   handles of one directory, with entries equal under one key (one
   unitary, other metadata) recorded by several handles.  After every
   flush, a fresh handle loads exactly the distinct records flushed so
   far, and a flush that had records to write leaves that count as its
   handle's [merged_count]. *)
type op = Record of int * int * int | Flush of int | Reopen of int

let show_op = function
  | Record (h, u, d) -> Printf.sprintf "record h%d u%d d%d" h u d
  | Flush h -> Printf.sprintf "flush h%d" h
  | Reopen h -> Printf.sprintf "reopen h%d" h

let arb_interleaving =
  let open QCheck.Gen in
  let interleaving handles =
    let h = int_bound (handles - 1) in
    map
      (fun ops -> (handles, ops))
      (list_size (int_range 1 30)
         (frequency
            [
              (5, map3 (fun h u d -> Record (h, u, d)) h (int_bound 4) (int_bound 2));
              (3, map (fun h -> Flush h) h);
              (1, map (fun h -> Reopen h) h);
            ]))
  in
  QCheck.make
    ~print:(fun (handles, ops) ->
      Printf.sprintf "%d handles: %s" handles
        (String.concat "; " (List.map show_op ops)))
    (int_range 2 3 >>= interleaving)

let prop_interleaved_flushes =
  let case = ref 0 in
  QCheck.Test.make ~name:"interleaved flushes count every record once"
    ~count:60 arb_interleaving (fun (handles, ops) ->
      incr case;
      let dir = tmp_dir (Printf.sprintf "interleave-%d" !case) in
      let s = Array.init handles (fun _ -> Store.open_dir dir) in
      (* unitaries flushed by some handle, and recorded by each handle
         since its last flush or open *)
      let on_disk = ref [] and recorded = Array.make handles [] in
      let union a b = List.sort_uniq compare (a @ b) in
      let ok =
        List.for_all
          (function
            | Record (h, u, d) ->
                store_record s.(h)
                  (Gate.matrix (Gate.RX (0.5 +. (0.7 *. float_of_int u))))
                  ~duration:(10.0 +. float_of_int d) ~fidelity:0.999 ();
                recorded.(h) <- union recorded.(h) [ u ];
                true
            | Reopen h ->
                s.(h) <- Store.open_dir dir;
                recorded.(h) <- [];
                true
            | Flush h ->
                let wrote = Store.pending_count s.(h) > 0 in
                Store.flush s.(h);
                on_disk := union !on_disk recorded.(h);
                recorded.(h) <- [];
                let fresh = Store.open_dir dir in
                let n = List.length !on_disk in
                Store.loaded_count fresh = n
                && Store.skipped_count fresh = 0
                && ((not wrote) || Store.merged_count s.(h) = n))
          ops
      in
      rm_rf dir;
      ok)

(* --- synthesis store --------------------------------------------------------- *)

module Synth_store = Epoc_cache.Synth_store
module Synthesis = Epoc_synthesis.Synthesis

let synth_records_path dir = Filename.concat dir "synth.jsonl"

let op gate qubits = { Circuit.gate; qubits }

(* A VUG + CNOT circuit exercising every serialization shape: named
   parameterless gates, parametrized gates, and a raw [Unitary]. *)
let vug_circuit_2q =
  let vug_matrix = Circuit.unitary (Circuit.of_ops 1 [ op Gate.H [ 0 ] ]) in
  Circuit.of_ops 2
    [
      op (Gate.Unitary { name = "vug"; matrix = vug_matrix }) [ 0 ];
      op Gate.CX [ 0; 1 ];
      op (Gate.RZ 0.375) [ 1 ];
      op (Gate.U3 (0.1, 0.2, 0.3)) [ 0 ];
    ]

(* The block a result was synthesized from, and a block with the same
   unitary written with different gates ([cz] is symmetric). *)
let block_2q = Circuit.of_ops 2 [ op Gate.CZ [ 0; 1 ]; op Gate.T [ 0 ] ]
let block_2q_swapped = Circuit.of_ops 2 [ op Gate.CZ [ 1; 0 ]; op Gate.T [ 0 ] ]

let test_synth_roundtrip () =
  let dir = tmp_dir "synth-roundtrip" in
  let r =
    {
      Synthesis.circuit = vug_circuit_2q;
      source = Synthesis.Synthesized;
      distance = 3.2e-9;
      expansions = 17;
      prunes = 4;
      open_max = 9;
      failure = None;
    }
  in
  let s = Synth_store.open_dir dir in
  Alcotest.(check bool) "cold probe misses" true
    (Synth_store.find s block_2q = None);
  Synth_store.record s block_2q r;
  Synth_store.flush s;
  let s2 = Synth_store.open_dir dir in
  Alcotest.(check int) "record reloads" 1 (Synth_store.loaded_count s2);
  (match Synth_store.find s2 block_2q with
  | None -> Alcotest.fail "op-list hit missing after reopen"
  | Some e ->
      Alcotest.(check bool) "ops survive byte-for-byte" true
        (Circuit.ops e.Synth_store.circuit = Circuit.ops vug_circuit_2q);
      Alcotest.(check (float 1e-15)) "distance survives" 3.2e-9
        e.Synth_store.distance;
      Alcotest.(check int) "cold expansions kept as metadata" 17
        e.Synth_store.expansions;
      let br = Synth_store.to_block_result e in
      Alcotest.(check bool) "replay is a success" true
        (br.Synthesis.failure = None);
      (* replayed results must not re-report search telemetry: the warm
         run's qsearch.* metrics stay empty *)
      Alcotest.(check int) "replay zeroes expansions" 0 br.Synthesis.expansions;
      Alcotest.(check int) "replay zeroes open_max" 0 br.Synthesis.open_max);
  (* the result depends on the gates, not only on the unitary: a block
     with the same unitary and different gates must not replay it *)
  Alcotest.(check bool) "same unitary" true
    (Circuit.equal_unitary block_2q block_2q_swapped);
  Alcotest.(check bool) "same-unitary block with other gates misses" true
    (Synth_store.find s2 block_2q_swapped = None);
  (* failure-carrying results are never recorded *)
  Synth_store.record s2 block_2q_swapped
    { r with Synthesis.failure = Some "deadline" };
  Alcotest.(check int) "failed result not recorded" 0
    (Synth_store.pending_count s2);
  rm_rf dir

let test_synth_corrupt_trailing () =
  let dir = tmp_dir "synth-corrupt" in
  let s = Synth_store.open_dir dir in
  Synth_store.record s block_2q
    {
      Synthesis.circuit = vug_circuit_2q;
      source = Synthesis.Fallback;
      distance = 0.0;
      expansions = 0;
      prunes = 0;
      open_max = 0;
      failure = None;
    };
  Synth_store.flush s;
  let oc = open_out_gen [ Open_append ] 0o644 (synth_records_path dir) in
  output_string oc "{\"key\": \"feed\", \"dim\": 4, \"circ";
  close_out oc;
  let s2 = Synth_store.open_dir dir in
  Alcotest.(check int) "valid record loads" 1 (Synth_store.loaded_count s2);
  Alcotest.(check int) "torn record skipped" 1 (Synth_store.skipped_count s2);
  Alcotest.(check bool) "entry still found" true
    (Synth_store.find s2 block_2q <> None);
  rm_rf dir

(* A schema-1 store (records keyed by block unitary, as older builds
   wrote them) is quarantined: it opens empty, answers no probe, and the
   next flush rewrites it under the current schema. *)
let test_synth_v1_quarantined () =
  let dir = tmp_dir "synth-v1" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc = open_out (synth_records_path dir) in
  output_string oc
    "{\"format\": \"epoc-synth-cache\",\"schema_version\": 1,\
     \"match_global_phase\": true}\n\
     {\"key\": \"ac8eb24b6b77e78f5972d4e5a9ebd873\",\"dim\": 2,\
     \"source\": \"fallback\",\"distance\": 0,\"expansions\": 0,\
     \"prunes\": 0,\"unitary\": [0.70710678118654746,0,\
     0.70710678118654746,0,0.70710678118654746,0,-0.70710678118654746,0],\
     \"circuit\": {\"n\": 1,\"ops\": [{\"g\": \"h\",\"q\": [0]}]}}\n";
  close_out oc;
  let h = Circuit.of_ops 1 [ op Gate.H [ 0 ] ] in
  let s = Synth_store.open_dir dir in
  Alcotest.(check int) "v1 store starts empty" 0 (Synth_store.loaded_count s);
  Alcotest.(check int) "v1 records quarantined, not parsed" 0
    (Synth_store.skipped_count s);
  Alcotest.(check bool) "no hit from v1 records" true
    (Synth_store.find s h = None);
  Synth_store.record s h
    {
      Synthesis.circuit = h;
      source = Synthesis.Fallback;
      distance = 0.0;
      expansions = 0;
      prunes = 0;
      open_max = 0;
      failure = None;
    };
  Synth_store.flush s;
  let s2 = Synth_store.open_dir dir in
  Alcotest.(check int) "rewritten store loads" 1 (Synth_store.loaded_count s2);
  Alcotest.(check bool) "rewritten record hits" true
    (Synth_store.find s2 h <> None);
  rm_rf dir

(* Warm synthesis replay through the pipeline: the second run hits the
   store for every block, runs no QSearch, and reproduces the cold
   schedule byte-for-byte. *)
let test_pipeline_warm_synthesis () =
  let dir = tmp_dir "synth-pipeline" in
  (* iswap: its 2-qubit block needs a search, which beats the direct form *)
  let circuit = Epoc_benchmarks.Benchmarks.find "iswap" in
  let cfg = { Config.default with Config.synth_cache_dir = Some dir } in
  let run () =
    let metrics = M.create () in
    let engine = Engine.create ~config:cfg () in
    let session = Engine.session ~config:cfg ~metrics ~name:"iswap" engine in
    (Pipeline.compile session circuit, metrics)
  in
  let cold, cold_m = run () in
  Alcotest.(check int) "cold run has no hits" 0
    (M.counter_value cold_m "synth.cache.hits");
  Alcotest.(check bool) "cold run misses" true
    (M.counter_value cold_m "synth.cache.misses" > 0);
  Alcotest.(check bool) "cold run searched" true
    (M.hist_value cold_m "qsearch.expansions" <> None);
  let warm, warm_m = run () in
  Alcotest.(check bool) "warm run hits" true
    (M.counter_value warm_m "synth.cache.hits" > 0);
  Alcotest.(check int) "warm run fully cached" 0
    (M.counter_value warm_m "synth.cache.misses");
  Alcotest.(check bool) "warm run never enters QSearch" true
    (M.hist_value warm_m "qsearch.expansions" = None);
  Alcotest.(check bool) "schedule byte-identical" true
    (cold.Pipeline.schedule = warm.Pipeline.schedule);
  Alcotest.(check bool) "latency identical" true
    (cold.Pipeline.latency = warm.Pipeline.latency);
  Alcotest.(check bool) "esp identical" true
    (cold.Pipeline.esp = warm.Pipeline.esp);
  rm_rf dir

(* Cold and warm compiles of the same circuit on one synthesis store
   agree when blocks share a unitary but not their gates.  In the
   3-qubit circuit, the ZX and direct candidates' blocks include a lone
   cz(0,1) and cz(1,0), whose direct forms differ (H-CX-H with the CX
   reversed); a store keyed by unitary replayed the first one's circuit
   for both (96.2 ns cold, 103.6 ns warm).  The 6-qubit circuit went
   from 514 ns / 17 pulses cold to 534 ns / 20 pulses warm. *)
let warm_reproducers =
  [
    ( "cz-pair",
      "qreg q[3]; cz q[0],q[1]; t q[0]; cz q[2],q[1]; h q[1];" );
    ( "random-6q",
      "qreg q[6]; cx q[2],q[0]; t q[5]; sx q[3]; s q[3]; \
       rz(3.4910826834924884) q[0]; s q[0]; cz q[4],q[2]; cz q[1],q[4]; \
       cz q[3],q[2]; cz q[1],q[3]; cx q[4],q[3]; cz q[2],q[0]; h q[3]; \
       cz q[2],q[3]; cx q[4],q[0]; cx q[4],q[3]; cz q[5],q[0]; \
       cx q[5],q[3]; cz q[2],q[1]; t q[5]; sx q[3]; cz q[1],q[3]; \
       cz q[1],q[4]; cx q[4],q[5];" );
  ]

let test_warm_synthesis_same_unitary_blocks () =
  List.iter
    (fun (name, body) ->
      let dir = tmp_dir ("synth-repro-" ^ name) in
      let circuit =
        Epoc_qasm.Qasm.of_string
          ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n" ^ body)
      in
      let cfg = { Config.default with Config.synth_cache_dir = Some dir } in
      let run () =
        let metrics = M.create () in
        let engine = Engine.create ~config:cfg () in
        let session = Engine.session ~config:cfg ~metrics ~name engine in
        (Pipeline.compile session circuit, metrics)
      in
      let cold, _ = run () in
      let warm, warm_m = run () in
      Alcotest.(check int) (name ^ ": warm run fully cached") 0
        (M.counter_value warm_m "synth.cache.misses");
      Alcotest.(check bool) (name ^ ": schedule identical") true
        (cold.Pipeline.schedule = warm.Pipeline.schedule);
      Alcotest.(check (float 0.0)) (name ^ ": latency identical")
        cold.Pipeline.latency warm.Pipeline.latency;
      Alcotest.(check (float 0.0)) (name ^ ": esp identical")
        cold.Pipeline.esp warm.Pipeline.esp;
      rm_rf dir)
    warm_reproducers

(* The warm synthesis path obeys the determinism contract: identical
   results and hit counts for any domain count. *)
let test_warm_synthesis_domain_determinism () =
  let dir = tmp_dir "synth-determinism" in
  let circuit = Epoc_benchmarks.Benchmarks.find "simon" in
  let cfg = { Config.default with Config.synth_cache_dir = Some dir } in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~name:"simon" (Engine.create ~config:cfg ()))
       circuit);
  let run domains =
    let pool = Epoc_parallel.Pool.create ~domains () in
    let metrics = M.create () in
    let engine = Engine.create ~config:cfg ~pool () in
    let session = Engine.session ~config:cfg ~metrics ~name:"simon" engine in
    let r = Pipeline.compile session circuit in
    ( r.Pipeline.latency,
      r.Pipeline.esp,
      r.Pipeline.stats,
      M.counter_value metrics "synth.cache.hits",
      M.counter_value metrics "synth.cache.misses" )
  in
  Alcotest.(check bool) "1 vs 4 domains identical" true (run 1 = run 4);
  rm_rf dir

(* --- what a compile publishes --------------------------------------------- *)

(* The record lines of a store file, header dropped, as a sorted list:
   the store's records compared as a set. *)
let record_set dir =
  match String.split_on_char '\n' (read_file (records_path dir)) with
  | [] -> []
  | _header :: records ->
      List.sort compare (List.filter (fun l -> String.trim l <> "") records)

(* The EPOC flow with every candidate's finished IR captured: the graph
   stage's candidates (the ZX result first when it is used, then the
   peephole one) through the default config's pass list. *)
let capturing_flow captured =
  let lock = Mutex.create () in
  let capture =
    Pass.make "capture" (fun _ ir ->
        Mutex.protect lock (fun () -> captured := ir :: !captured);
        ir)
  in
  let graph _ctx circuit =
    let open Epoc_zx.Zx in
    let g = optimize circuit in
    let p = optimize ~strategy:Peephole_only circuit in
    ( (if g.used = Graph then [ (g.circuit, true) ] else [])
      @ [ (p.circuit, false) ],
      [] )
  in
  {
    Pipeline.graph;
    passes =
      (fun _ ->
        Stages.
          [
            reorder_gates; partition; synthesis; reorder_vugs; regroup_sweep;
            pulses; schedule; capture;
          ]);
  }

(* A cold compile on a fresh store records exactly what its candidates
   solved: the union of their [Ir.fresh_pulses], winner first, so where
   two candidates priced one unitary the store holds the winner's
   value.  bb84 yields two candidates.  A warm run then misses
   nothing. *)
let test_publishes_fresh_pulses () =
  let dir = tmp_dir "publish" and expected = tmp_dir "publish-expected" in
  let circuit = Epoc_benchmarks.Benchmarks.find "bb84" in
  let cfg = { Config.default with Config.cache_dir = Some dir } in
  let captured = ref [] in
  let r =
    Pipeline.compile_flow
      (Engine.session ~config:cfg ~name:"bb84" (Engine.create ~config:cfg ()))
      (capturing_flow captured) circuit
  in
  let plain =
    Pipeline.compile (Engine.session ~name:"bb84" (Engine.create ())) circuit
  in
  Alcotest.(check bool) "the capturing flow compiles like the EPOC flow" true
    (r.Pipeline.schedule = plain.Pipeline.schedule);
  let irs =
    List.sort
      (fun (a : Ir.t) (b : Ir.t) ->
        compare (not a.Ir.zx_used_graph) (not b.Ir.zx_used_graph))
      !captured
  in
  Alcotest.(check int) "two candidates" 2 (List.length irs);
  let _, winner =
    Stages.best_by_latency (List.map (fun ir -> (Ir.schedule_exn ir, ir)) irs)
  in
  let published = winner :: List.filter (fun ir -> ir != winner) irs in
  Alcotest.(check bool) "both candidates solved pulses" true
    (List.for_all (fun ir -> Ir.fresh_pulses ir <> []) irs);
  let union = Store.open_dir expected in
  List.iter
    (fun ir ->
      List.iter (fun (key, e) -> Store.record union ~key e) (Ir.fresh_pulses ir))
    published;
  Store.flush union;
  Alcotest.(check (list string)) "store holds the winner-first union"
    (record_set expected) (record_set dir);
  let metrics = M.create () in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~metrics ~name:"bb84"
          (Engine.create ~config:cfg ()))
       circuit);
  Alcotest.(check int) "warm run misses nothing" 0
    (M.counter_value metrics "cache.misses");
  rm_rf dir;
  rm_rf expected

(* The store records what a run solved, not what its library held: a
   compile whose explicit library an earlier store-less compile filled
   resolves every job from that library and persists none of its
   entries. *)
let test_found_entries_not_recorded () =
  let dir = tmp_dir "found" in
  let circuit = Epoc_benchmarks.Benchmarks.find "qaoa" in
  let library = Library.create () in
  ignore
    (Pipeline.compile
       (Engine.session ~library ~name:"qaoa" (Engine.create ()))
       circuit);
  Alcotest.(check bool) "the store-less compile filled the library" true
    ((Library.stats library).Library.entries > 0);
  let cfg = { Config.default with Config.cache_dir = Some dir } in
  let metrics = M.create () in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~library ~metrics ~name:"qaoa"
          (Engine.create ~config:cfg ()))
       circuit);
  Alcotest.(check int) "no store probe" 0
    (M.counter_value metrics "cache.misses");
  Alcotest.(check int) "nothing recorded" 0
    (Store.loaded_count (Store.open_dir dir));
  rm_rf dir

(* A store that cannot be written costs its records' persistence, not
   the compile: with the record file replaced by a directory the flush
   fails, the compile still returns the store-less schedule, the engine
   registry counts the failure, and the run's records stay queued. *)
let test_unwritable_store () =
  let dir = tmp_dir "unwritable" in
  Unix.mkdir dir 0o755;
  Unix.mkdir (records_path dir) 0o755;
  let circuit = Epoc_benchmarks.Benchmarks.find "qaoa" in
  let cfg = { Config.default with Config.cache_dir = Some dir } in
  let engine = Engine.create ~config:cfg () in
  let metrics = M.create () in
  let r =
    Pipeline.compile (Engine.session ~config:cfg ~metrics ~name:"qaoa" engine)
      circuit
  in
  let plain =
    Pipeline.compile (Engine.session ~name:"qaoa" (Engine.create ())) circuit
  in
  Alcotest.(check bool) "store-less schedule" true
    (r.Pipeline.schedule = plain.Pipeline.schedule);
  Alcotest.(check int) "one flush error on the engine registry" 1
    (M.counter_value (Engine.metrics engine) "cache.flush_errors");
  Alcotest.(check int) "none on the run's registry" 0
    (M.counter_value metrics "cache.flush_errors");
  let store = Option.get (Engine.cache engine) in
  Alcotest.(check int) "every solved pulse stays pending"
    (M.counter_value metrics "cache.misses")
    (Store.pending_count store);
  (* a second compile, of another circuit, on the still-broken store:
     its failure is counted but not warned again, and the queue grows by
     its solves *)
  let warnings = Logs.warn_count () in
  let queued = Store.pending_count store in
  let second = M.create () in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~metrics:second ~name:"bb84" engine)
       (Epoc_benchmarks.Benchmarks.find "bb84"));
  Alcotest.(check int) "a second flush error" 2
    (M.counter_value (Engine.metrics engine) "cache.flush_errors");
  Alcotest.(check int) "no second warning" warnings (Logs.warn_count ());
  Alcotest.(check bool) "the queue grows by the second compile's solves" true
    (Store.pending_count store > queued);
  let queued = Store.pending_count store in
  (* the store becomes writable: the next compile's flush writes every
     queued record once *)
  Unix.rmdir (records_path dir);
  let third = M.create () in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~metrics:third ~name:"qaoa" engine)
       circuit);
  Alcotest.(check int) "nothing left queued" 0 (Store.pending_count store);
  Alcotest.(check int) "no third flush error" 2
    (M.counter_value (Engine.metrics engine) "cache.flush_errors");
  let lines = record_lines (read_file (records_path dir)) in
  Alcotest.(check int) "one line per queued record" queued lines;
  Alcotest.(check (option (float 0.0))) "record lines = cache.entries"
    (Some (float_of_int lines))
    (M.gauge_value third "cache.entries");
  rm_rf dir

let () =
  Alcotest.run "cache"
    [
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "corrupted trailing record" `Quick
            test_corrupt_trailing;
          Alcotest.test_case "header mismatch" `Quick test_header_mismatch;
          Alcotest.test_case "header phase field ignored" `Quick
            test_header_phase_field_ignored;
          Alcotest.test_case "phase-sensitive probe" `Quick
            test_phase_sensitive_probe;
          Alcotest.test_case "concurrent writers" `Quick test_lock_contention;
          Alcotest.test_case "nearest neighbor" `Quick test_nearest;
          Alcotest.test_case "merged-entry accounting" `Quick
            test_merged_count;
          Alcotest.test_case "near-tied records survive a flush" `Quick
            test_near_tied_records_survive_flush;
          Alcotest.test_case "context scoping" `Quick test_context_scoping;
          Alcotest.test_case "recalibrated device" `Quick
            test_recalibrated_device;
          Alcotest.test_case "QoC-mode scoping" `Quick test_mode_scoping;
          Alcotest.test_case "flush appends" `Quick test_flush_appends;
          Alcotest.test_case "replaced file read from its header" `Quick
            test_replaced_file;
          Alcotest.test_case "file rewritten in place" `Quick
            test_rewritten_in_place;
          Alcotest.test_case "record racing flush" `Quick
            test_record_races_flush;
          QCheck_alcotest.to_alcotest prop_interleaved_flushes;
        ] );
      ( "synth-store",
        [
          Alcotest.test_case "round-trip" `Quick test_synth_roundtrip;
          Alcotest.test_case "corrupted trailing record" `Quick
            test_synth_corrupt_trailing;
          Alcotest.test_case "schema-1 store quarantined" `Quick
            test_synth_v1_quarantined;
          Alcotest.test_case "pipeline warm synthesis" `Quick
            test_pipeline_warm_synthesis;
          Alcotest.test_case "same-unitary blocks cold vs warm" `Quick
            test_warm_synthesis_same_unitary_blocks;
          Alcotest.test_case "warm-synthesis domain determinism" `Quick
            test_warm_synthesis_domain_determinism;
        ] );
      ( "publish",
        [
          Alcotest.test_case "winner-first union of fresh pulses" `Quick
            test_publishes_fresh_pulses;
          Alcotest.test_case "found entries are not recorded" `Quick
            test_found_entries_not_recorded;
          Alcotest.test_case "unwritable store" `Quick test_unwritable_store;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "grape init" `Quick test_grape_warm_start;
          Alcotest.test_case "pipeline warm run" `Quick test_pipeline_warm_run;
          Alcotest.test_case "warm-run domain determinism" `Quick
            test_warm_run_domain_determinism;
        ] );
    ]
