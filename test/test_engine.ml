(* Engine/session architecture tests: per-engine metric scoping, shared
   hardware memo, session library conventions, and the headline
   guarantee — concurrent sessions on one engine produce schedules
   bit-identical to solo one-shot runs, at any domain count. *)

open Epoc
module Metrics = Epoc_obs.Metrics
module Library = Epoc_pulse.Library
module Schedule = Epoc_pulse.Schedule

let bb84 () = Epoc_benchmarks.Benchmarks.find "bb84"

let run ?request_id ?library ?engine ~name c =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  Pipeline.compile (Engine.session ?request_id ?library ~name engine) c
let qaoa () = Epoc_benchmarks.Benchmarks.find "qaoa"

let schedule_t =
  Alcotest.testable Schedule.pp (fun (a : Schedule.t) b -> a = b)

(* pool traffic lands on the owning engine's registry and nowhere else;
   a fresh engine starts from zero, so sequential runs on fresh engines
   report identical counts instead of accumulating process-wide *)
let test_pool_counter_scoping () =
  let pool_traffic e =
    Metrics.counter_value (Engine.metrics e) "pool.maps"
    + Metrics.counter_value (Engine.metrics e) "pool.sequential_maps"
  in
  let e1 = Engine.create ~domains:2 () in
  let e2 = Engine.create ~domains:2 () in
  let _ = run ~engine:e1 ~name:"bb84" (bb84 ()) in
  let n1 = pool_traffic e1 in
  Alcotest.(check bool) "run recorded traffic on its engine" true (n1 > 0);
  Alcotest.(check int) "idle engine saw none" 0 (pool_traffic e2);
  let _ = run ~engine:e2 ~name:"bb84" (bb84 ()) in
  Alcotest.(check int) "fresh engine reports the same count, not a sum" n1
    (pool_traffic e2);
  let _ = run ~engine:e1 ~name:"bb84" (bb84 ()) in
  Alcotest.(check int) "same engine accumulates" (2 * n1) (pool_traffic e1)

(* the hardware memo is engine-owned: repeated lookups share one model,
   distinct engines build their own; the default model re-chains a
   block's local qubits, so equal-width blocks share it, while device
   blocks are keyed by their global qubits and the whole device *)
let test_hardware_memo () =
  let config = Config.default in
  let e1 = Engine.create () and e2 = Engine.create () in
  let block e qs = Engine.hardware_for_block e config qs in
  Alcotest.(check bool) "memo hit is the same model" true
    (block e1 [ 0; 1 ] == block e1 [ 0; 1 ]);
  Alcotest.(check bool) "default model ignores global qubits" true
    (block e1 [ 0; 1 ] == block e1 [ 3; 5 ]);
  Alcotest.(check string) "default context" ""
    (block e1 [ 3; 5 ]).Epoc_qoc.Hardware.context;
  Alcotest.(check bool) "engines do not share models" false
    (block e1 [ 0; 1 ] == block e2 [ 0; 1 ]);
  let grid =
    Config.with_device (Epoc_device.Device.grid ~rows:3 ~cols:3 ()) config
  in
  let dev qs = Engine.hardware_for_block e1 grid qs in
  Alcotest.(check bool) "device blocks memoized" true
    (dev [ 0; 1 ] == dev [ 0; 1 ]);
  Alcotest.(check bool) "device blocks keyed by global qubits" false
    (dev [ 0; 1 ] == dev [ 1; 2 ]);
  let context = (dev [ 0; 1 ]).Epoc_qoc.Hardware.context in
  Alcotest.(check bool) "device context names device and block" true
    (String.starts_with ~prefix:"grid3x3#" context
    && String.ends_with ~suffix:"[0,1]" context);
  (* a recalibration under the same name is another device *)
  let recal =
    Config.with_device
      (Epoc_device.Device.grid ~coupling_ghz:0.006 ~rows:3 ~cols:3 ())
      config
  in
  let recal_block = Engine.hardware_for_block e1 recal [ 0; 1 ] in
  Alcotest.(check bool) "recalibration gets its own model" false
    (recal_block == dev [ 0; 1 ]);
  Alcotest.(check bool) "recalibration gets its own context" false
    (recal_block.Epoc_qoc.Hardware.context = context)

(* a session keeps the engine library, or the caller's, only when its
   config's matching convention agrees; otherwise it gets a private one
   under the config's convention — also after a config transform *)
let test_session_library_convention () =
  let e = Engine.create () in
  let s_default = Engine.session ~name:"a" e in
  Alcotest.(check bool) "matching convention shares" true
    (Engine.session_library s_default == Engine.library e);
  let phase_sensitive =
    { Config.default with Config.match_global_phase = false }
  in
  let s_sensitive = Engine.session ~config:phase_sensitive ~name:"b" e in
  Alcotest.(check bool) "mismatched convention isolates" false
    (Engine.session_library s_sensitive == Engine.library e);
  Alcotest.(check bool) "private library follows the session config" false
    (Library.match_global_phase (Engine.session_library s_sensitive));
  (* an explicit library: kept when it agrees, replaced when it does not *)
  let mine = Library.create () in
  let s_mine = Engine.session ~library:mine ~name:"c" e in
  Alcotest.(check bool) "agreeing explicit library kept" true
    (Engine.session_library s_mine == mine);
  let s_mine_sensitive =
    Engine.session ~config:phase_sensitive ~library:mine ~name:"d" e
  in
  Alcotest.(check bool) "disagreeing explicit library replaced" false
    (Engine.session_library s_mine_sensitive == mine);
  Alcotest.(check bool) "replacement follows the session config" false
    (Library.match_global_phase (Engine.session_library s_mine_sensitive));
  (* the baselines' transform: the caller's library is swapped for the
     transformed config and comes back when the convention agrees again *)
  let transformed = Engine.with_config phase_sensitive s_mine in
  Alcotest.(check bool) "transform to a disagreeing config replaces it" false
    (Engine.session_library transformed == mine
    || Library.match_global_phase (Engine.session_library transformed));
  Alcotest.(check bool) "transform back keeps the caller's library" true
    (Engine.session_library (Engine.with_config Config.default transformed)
    == mine)

(* The engine library is shared across reuse contexts — block models
   and QoC modes — and its entries answer only their own context's
   probes (each job's library key covers its context).  So a compile
   after another context's compile on the same engine sees the library
   traffic of a compile on a fresh engine. *)
let test_library_context_scoping () =
  let grid3x3 =
    Config.with_device (Epoc_device.Device.grid ~rows:3 ~cols:3 ())
      Config.default
  in
  List.iter
    (fun (label, name, first, second) ->
      let c = Epoc_benchmarks.Benchmarks.find name in
      let stats e config =
        (Pipeline.compile (Engine.session ~config ~name e) c)
          .Pipeline.library_stats
      in
      let shared = Engine.create () in
      let before = stats shared first in
      let after = stats shared second in
      let fresh = stats (Engine.create ()) second in
      Alcotest.(check int) (label ^ ": hits") fresh.Library.hits
        (after.Library.hits - before.Library.hits);
      Alcotest.(check int) (label ^ ": misses") fresh.Library.misses
        (after.Library.misses - before.Library.misses))
    [
      ("grid3x3 after the default model", "qaoa", Config.default, grid3x3);
      ("GRAPE after estimate", "bb84", Config.default, Config.grape);
    ]

(* request ids are engine-scoped, unique and threaded session -> ctx ->
   result; an explicit id overrides the engine's counter *)
let test_request_ids () =
  let e = Engine.create () in
  let s1 = Engine.session ~name:"a" e in
  let s2 = Engine.session ~name:"b" e in
  Alcotest.(check string) "first id" "r1" (Engine.session_request_id s1);
  Alcotest.(check string) "second id" "r2" (Engine.session_request_id s2);
  Alcotest.(check string) "ctx sees the session id" "r1"
    (Pass.of_session s1).Pass.request_id;
  let s3 = Engine.session ~request_id:"job42" ~name:"c" e in
  Alcotest.(check string) "explicit id wins" "job42"
    (Engine.session_request_id s3);
  Alcotest.(check bool) "explicit id does not burn the counter" true
    (Engine.session_request_id (Engine.session ~name:"d" e) = "r3");
  (* engines do not share counters *)
  let e2 = Engine.create () in
  Alcotest.(check string) "fresh engine restarts" "r1"
    (Engine.session_request_id (Engine.session ~name:"x" e2));
  (* concurrent draws stay unique *)
  let e3 = Engine.create () in
  let draws =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 25 (fun _ -> Engine.next_request_id e3)))
  in
  let ids = List.concat_map Domain.join draws in
  Alcotest.(check int) "100 concurrent draws, all distinct" 100
    (List.length (List.sort_uniq compare ids))

(* the id rides through the pipeline onto the result *)
let test_request_id_on_result () =
  let e = Engine.create () in
  let r1 = run ~engine:e ~name:"bb84" (bb84 ()) in
  let r2 = run ~engine:e ~name:"bb84" (bb84 ()) in
  Alcotest.(check string) "first run" "r1" r1.Pipeline.request_id;
  Alcotest.(check string) "second run" "r2" r2.Pipeline.request_id;
  let given =
    run ~engine:e ~request_id:"srv-7" ~name:"bb84" (bb84 ())
  in
  Alcotest.(check string) "caller-supplied id" "srv-7"
    given.Pipeline.request_id;
  (* one-shot runs (ephemeral engine) still stamp an id *)
  let solo = run ~name:"bb84" (bb84 ()) in
  Alcotest.(check string) "one-shot id" "r1" solo.Pipeline.request_id

(* two concurrent sessions on one engine — bb84 and qaoa compiling in
   parallel domains, each with a private library as the serve daemon
   does — produce schedules bit-identical to solo one-shot runs *)
let concurrent_vs_solo domains () =
  let solo name c =
    (run ~name c : Pipeline.result).Pipeline.schedule
  in
  let solo_bb84 = solo "bb84" (bb84 ()) in
  let solo_qaoa = solo "qaoa" (qaoa ()) in
  let engine = Engine.create ~domains () in
  let compile name c =
    Domain.spawn (fun () ->
        run ~engine ~library:(Library.create ()) ~name c)
  in
  let d1 = compile "bb84" (bb84 ()) in
  let d2 = compile "qaoa" (qaoa ()) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.check schedule_t "bb84 bit-identical to solo" solo_bb84
    r1.Pipeline.schedule;
  Alcotest.check schedule_t "qaoa bit-identical to solo" solo_qaoa
    r2.Pipeline.schedule;
  (* both sessions shared the engine: traffic landed on one registry *)
  Alcotest.(check bool) "engine saw both runs" true
    (Metrics.counter_value (Engine.metrics engine) "pool.maps"
     + Metrics.counter_value (Engine.metrics engine) "pool.sequential_maps"
    > 0)

(* Random 10-qubit circuits for heavyhex12 (perfbench oneshot-estimate
   draws of seeds 41, 139 and 193) whose warm repeat on one engine
   changed one instruction's duration in its last bits: two
   candidates priced one unitary a few ulps apart, and the library kept
   the losing candidate's entry, which then answered the winner's
   warm lookup. *)
let warm_repeat_draws =
  [
    ( "seed41-rand1",
      "qreg q[10]; t q[5]; t q[4]; x q[4]; h q[0]; \
       rz(3.6793484573764821) q[3]; s q[6]; cx q[5],q[8]; \
       cx q[3],q[8]; cx q[5],q[2]; rz(2.6455930363842639) q[1]; \
       h q[3]; rz(3.9512905415801454) q[7]; h q[2]; cz q[6],q[2]; \
       rz(4.6234500200838271) q[6]; cx q[4],q[9]; sx q[8]; h q[9]; \
       cz q[2],q[0]; s q[1]; cz q[4],q[3]; cz q[8],q[5]; x q[0]; \
       t q[4]; cx q[4],q[7]; cx q[8],q[5]; cx q[9],q[3]; h q[4]; \
       s q[2]; t q[6]; s q[0]; cz q[4],q[0]; \
       rz(6.2357678875356646) q[1]; h q[8]; cx q[7],q[2]; h q[9]; \
       cz q[7],q[3]; h q[2]; cz q[9],q[5]; cz q[0],q[9]; x q[2]; \
       h q[1]; x q[6]; cz q[2],q[7]; cz q[0],q[4]; x q[8]; \
       rz(1.9681206600853267) q[9]; t q[5]; cz q[9],q[2]; \
       cx q[8],q[6];" );
    ( "seed139-rand0",
      "qreg q[10]; cz q[6],q[7]; t q[0]; t q[3]; x q[9]; \
       cx q[7],q[1]; rz(0.66704456925362676) q[3]; cx q[8],q[1]; \
       s q[1]; sx q[6]; rz(1.4399827256568807) q[2]; cz q[1],q[5]; \
       rz(4.4394233491627704) q[1]; s q[7]; cx q[1],q[7]; \
       cz q[1],q[3]; x q[9]; h q[9]; sx q[0]; h q[2]; \
       rz(0.52165467089174122) q[1]; s q[3]; s q[1]; x q[0]; \
       rz(1.1574757232505191) q[2]; cx q[4],q[8]; x q[8]; \
       cz q[7],q[1]; rz(3.1584599740185566) q[6]; cz q[9],q[4]; \
       h q[4]; t q[0]; x q[6]; cz q[6],q[8]; s q[6]; cz q[1],q[9]; \
       cx q[4],q[3]; sx q[7]; x q[0]; cx q[4],q[0]; cz q[5],q[3]; \
       cx q[6],q[1]; rz(1.3133954940981105) q[3]; x q[7]; \
       cz q[0],q[3]; t q[0]; t q[3]; cz q[0],q[5]; cx q[6],q[0]; \
       rz(4.7662135557155745) q[6]; sx q[4];" );
    ( "seed193-rand0",
      "qreg q[10]; h q[5]; cx q[7],q[9]; x q[3]; s q[4]; t q[0]; \
       cz q[0],q[7]; t q[5]; cz q[4],q[0]; \
       rz(1.079892266003357) q[0]; cz q[5],q[0]; sx q[4]; h q[0]; \
       s q[8]; t q[0]; rz(1.4971027578292415) q[0]; t q[5]; sx q[4]; \
       sx q[6]; cz q[8],q[5]; h q[4]; h q[2]; cx q[9],q[3]; s q[7]; \
       t q[1]; cx q[8],q[4]; h q[3]; x q[7]; cz q[1],q[8]; \
       cx q[1],q[2]; s q[4]; cz q[9],q[5]; cz q[8],q[2]; \
       cz q[9],q[8]; rz(0.54892893731228509) q[5]; x q[7]; \
       rz(5.544830130758764) q[2]; sx q[1]; \
       rz(3.2702171615280755) q[1]; t q[8]; t q[0]; sx q[5]; \
       rz(1.8854671982012872) q[9]; sx q[7]; s q[6]; sx q[0]; x q[1]; \
       cz q[4],q[0]; cz q[7],q[0]; s q[7]; x q[1];" );
  ]

let test_warm_repeat_reproduces_cold () =
  let base = Config.default in
  let config =
    { base with
      Config.partition =
        { base.Config.partition with Epoc_partition.Partition.qubit_limit = 3 } }
  in
  List.iter
    (fun (name, body) ->
      let engine = Engine.create ~config () in
      let device =
        Option.get
          (Epoc_device.Device.Registry.find (Engine.devices engine) "heavyhex12")
      in
      let config = Config.with_device device config in
      let circuit =
        Epoc_qasm.Qasm.of_string
          ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n" ^ body)
      in
      let pulse_ir () =
        let r = Pipeline.compile (Engine.session ~config ~name engine) circuit in
        Epoc_pulseir.Pulseir.(
          to_string (export ~device ~name r.Pipeline.schedule))
      in
      let cold = pulse_ir () in
      Alcotest.(check bool) (name ^ ": warm pulse IR byte-identical") true
        (String.equal cold (pulse_ir ())))
    warm_repeat_draws

(* The pulses stage reports its own compile's library traffic: a warm
   repeat on one engine (qaoa yields one candidate) counts the hits and
   misses of that compile, which is how far the shared library's running
   totals moved, not the totals themselves. *)
let test_warm_repeat_stage_counters () =
  let engine = Engine.create () in
  let compile () = run ~engine ~name:"qaoa" (qaoa ()) in
  let count (r : Pipeline.result) name =
    let open Epoc_obs.Trace in
    match
      List.find_opt (fun e -> e.name = "cand0/pulses") (events r.Pipeline.trace)
    with
    | Some e -> Option.value ~default:(-1) (List.assoc_opt name e.counters)
    | None -> Alcotest.fail "no cand0/pulses span"
  in
  let cold = compile () in
  let warm = compile () in
  let before = cold.Pipeline.library_stats in
  let after = warm.Pipeline.library_stats in
  Alcotest.(check bool) "the cold compile missed" true
    (count cold "misses" > 0);
  Alcotest.(check int) "cold misses are the library's" before.Library.misses
    (count cold "misses");
  Alcotest.(check int) "warm repeat misses nothing" 0 (count warm "misses");
  Alcotest.(check int) "warm hits are this compile's"
    (after.Library.hits - before.Library.hits)
    (count warm "hits");
  Alcotest.(check bool) "the warm repeat hit" true (count warm "hits" > 0)

let () =
  Alcotest.run "engine"
    [
      ( "scoping",
        [
          Alcotest.test_case "pool counters per engine" `Quick
            test_pool_counter_scoping;
          Alcotest.test_case "hardware memo per engine" `Quick
            test_hardware_memo;
          Alcotest.test_case "session library convention" `Quick
            test_session_library_convention;
          Alcotest.test_case "library entries answer their own context" `Quick
            test_library_context_scoping;
        ] );
      ( "request ids",
        [
          Alcotest.test_case "engine-scoped uniqueness" `Quick
            test_request_ids;
          Alcotest.test_case "threaded onto results" `Quick
            test_request_id_on_result;
        ] );
      ( "warm repeat",
        [
          Alcotest.test_case "reproduces the cold schedule" `Quick
            test_warm_repeat_reproduces_cold;
          Alcotest.test_case "stage counters are the compile's own" `Quick
            test_warm_repeat_stage_counters;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent sessions, 1 domain" `Slow
            (concurrent_vs_solo 1);
          Alcotest.test_case "concurrent sessions, 4 domains" `Slow
            (concurrent_vs_solo 4);
        ] );
    ]
