(* Pass-manager tests: golden equivalence of the staged pipeline against
   the pre-refactor monolith, trace structure, and baseline determinism.

   The golden table below was captured from the tree immediately before
   the pass-manager refactor (with the documented [zx_depth] fix applied:
   it records the depth after graph optimization, *before* the reorder
   pass), printed with %.17g so float comparisons are exact.  The
   pipeline's determinism contract makes these values bit-stable across
   runs and domain counts, so any drift is a real behaviour change. *)

open Epoc

(* (bench, flow, (latency, esp, input_depth, zx_depth, zx_used_graph,
    blocks, synthesized, vug_count, cx_count, pulse_count,
    library hits, misses, entries)) *)
let golden =
  [
    ("bb84", "epoc", (10., 0.99560767327245625, 3, 1, true, 4, 0, 4, 0, 4, 30, 2, 1));
    ("bb84", "gate", (30., 0.99282436816954511, 3, 3, false, 0, 0, 12, 0, 12, 0, 0, 0));
    ("bb84", "accqoc", (10., 0.99560767327245625, 3, 3, false, 7, 0, 4, 0, 4, 6, 2, 2));
    ("bb84", "paqoc", (10., 0.99560767327245625, 3, 3, false, 7, 0, 4, 0, 4, 6, 2, 2));
    ("simon", "epoc", (103.59999999999999, 0.99379035933880133, 5, 4, false, 2, 0, 6, 3, 2, 12, 6, 6));
    ("simon", "gate", (200., 0.96108626143798725, 5, 5, false, 0, 0, 6, 5, 11, 0, 0, 0));
    ("simon", "accqoc", (168.0000001157602, 0.98836521176272507, 5, 5, false, 6, 0, 6, 5, 6, 12, 5, 5));
    ("simon", "paqoc", (168.0000001157602, 0.98836521176272507, 5, 5, false, 6, 0, 6, 5, 6, 12, 5, 5));
    ("qaoa", "epoc", (101.12676826118066, 0.98800194946137576, 8, 8, false, 6, 0, 18, 12, 6, 33, 8, 8));
    ("qaoa", "gate", (740., 0.91044811336504383, 8, 8, false, 0, 0, 18, 12, 24, 0, 0, 0));
    ("qaoa", "accqoc", (367.36340003291025, 0.97645006399913881, 8, 8, false, 14, 0, 18, 12, 16, 33, 7, 7));
    ("qaoa", "paqoc", (303.38030477452486, 0.9796337810842477, 8, 8, false, 14, 0, 18, 12, 14, 31, 7, 7));
    ("ghz", "epoc", (115.89999999999999, 0.99437935493103313, 4, 4, false, 1, 0, 1, 3, 1, 5, 5, 5));
    ("ghz", "gate", (190., 0.97799145909380569, 4, 4, false, 0, 0, 1, 3, 4, 0, 0, 0));
    ("ghz", "accqoc", (168.00000020926831, 0.99365869050379285, 4, 4, false, 3, 0, 1, 3, 3, 4, 3, 3));
    ("ghz", "paqoc", (168.00000020926831, 0.99365869050379285, 4, 4, false, 3, 0, 1, 3, 3, 4, 3, 3));
    ("qft", "epoc", (267.49517902771981, 0.98305637567381421, 8, 8, false, 1, 0, 13, 18, 8, 25, 17, 17));
    ("qft", "gate", (800., 0.87605552791236874, 8, 8, false, 0, 0, 22, 18, 22, 0, 0, 0));
    ("qft", "accqoc", (447.99518008867619, 0.97685908805866772, 8, 8, false, 10, 0, 20, 18, 11, 19, 14, 14));
    ("qft", "paqoc", (285.99518067552117, 0.98199224687397135, 8, 8, false, 10, 0, 20, 18, 9, 18, 13, 13));
    ("adder", "epoc", (532.25557230777815, 0.96849290932596077, 6, 6, false, 5, 0, 18, 12, 18, 33, 12, 12));
    ("adder", "gate", (810., 0.88772798380653617, 6, 6, false, 0, 0, 20, 16, 22, 0, 0, 0));
    ("adder", "accqoc", (647.00000100084833, 0.96960106906767674, 6, 6, false, 8, 0, 18, 16, 16, 28, 10, 10));
    ("adder", "paqoc", (616.00000057226748, 0.9727486446884186, 6, 6, false, 8, 0, 18, 16, 14, 27, 9, 9));
  ]

module J = Epoc_obs.Json
module Trace = Epoc_obs.Trace

let session ?pool ~name () = Engine.session ~name (Engine.create ?pool ())

let compile ?pool flow name c =
  (List.assoc flow Baselines.flows) (session ?pool ~name ()) c

let test_golden_equivalence () =
  List.iter
    (fun (bench, flow,
          ( latency, esp, input_depth, zx_depth, zx_used_graph, blocks,
            synthesized, vug_count, cx_count, pulse_count, hits, misses,
            entries )) ->
      let c = Epoc_benchmarks.Benchmarks.find bench in
      let r = compile flow bench c in
      let s = r.Pipeline.stats in
      let ls = r.Pipeline.library_stats in
      let id = Printf.sprintf "%s/%s" bench flow in
      Alcotest.(check (float 0.0)) (id ^ " latency") latency r.Pipeline.latency;
      Alcotest.(check (float 0.0)) (id ^ " esp") esp r.Pipeline.esp;
      Alcotest.(check int) (id ^ " input_depth") input_depth s.Pipeline.input_depth;
      Alcotest.(check int) (id ^ " zx_depth") zx_depth s.Pipeline.zx_depth;
      Alcotest.(check bool) (id ^ " zx_used_graph") zx_used_graph
        s.Pipeline.zx_used_graph;
      Alcotest.(check int) (id ^ " blocks") blocks s.Pipeline.blocks;
      Alcotest.(check int) (id ^ " synthesized") synthesized
        s.Pipeline.synthesized_blocks;
      Alcotest.(check int) (id ^ " vug_count") vug_count s.Pipeline.vug_count;
      Alcotest.(check int) (id ^ " cx_count") cx_count s.Pipeline.cx_count;
      Alcotest.(check int) (id ^ " pulse_count") pulse_count s.Pipeline.pulse_count;
      Alcotest.(check int) (id ^ " hits") hits ls.Epoc_pulse.Library.hits;
      Alcotest.(check int) (id ^ " misses") misses ls.Epoc_pulse.Library.misses;
      Alcotest.(check int) (id ^ " entries") entries ls.Epoc_pulse.Library.entries)
    golden

(* All four flows must be bit-identical for any domain count (the PR-1
   guarantee, extended to the baselines through the shared driver). *)
let test_baseline_domain_determinism () =
  List.iter
    (fun (bench, flow) ->
      let c = Epoc_benchmarks.Benchmarks.find bench in
      let run d =
        let pool = Epoc_parallel.Pool.create ~domains:d () in
        let r = compile ~pool flow bench c in
        (r.Pipeline.latency, r.Pipeline.esp, r.Pipeline.stats, r.Pipeline.library_stats)
      in
      let l1, e1, s1, ls1 = run 1 in
      let l4, e4, s4, ls4 = run 4 in
      let id = Printf.sprintf "%s/%s" bench flow in
      Alcotest.(check (float 0.0)) (id ^ " latency identical") l1 l4;
      Alcotest.(check (float 0.0)) (id ^ " esp identical") e1 e4;
      Alcotest.(check bool) (id ^ " stats identical") true (s1 = s4);
      Alcotest.(check bool) (id ^ " library identical") true (ls1 = ls4))
    [ ("simon", "gate"); ("simon", "accqoc"); ("qaoa", "paqoc") ]

(* GRAPE-mode golden: five seeded 2-qubit circuits (RZ on both qubits,
   then CZ), compiled with [Config.grape], so every pulse comes from a
   real duration search.  Latency is a whole number of slots and is
   pinned exactly; ESP to 1e-12 relative.  A change that moves any probe
   of a duration search moves these.  (rz q0, rz q1, latency, esp) *)
let grape_golden =
  [
    (2.070589662680407, 1.8190757084959279, 49.0, 0.99802214289868296);
    (3.8039531007115008, 2.2840030323721487, 54.5, 0.99791637345536133);
    (1.6044052054102313, 3.2533867393041094, 50.5, 0.9979946841671713);
    (5.9611856895453199, 1.0594273637125999, 54.0, 0.99792622766051531);
    (0.4998151262785257, 1.0829174160014674, 52.5, 0.99796219706788702);
  ]

let test_grape_golden () =
  List.iter
    (fun (a, b, latency, esp) ->
      let open Epoc_circuit in
      let c =
        Circuit.of_ops 2
          [
            { Circuit.gate = Gate.RZ a; qubits = [ 0 ] };
            { Circuit.gate = Gate.RZ b; qubits = [ 1 ] };
            { Circuit.gate = Gate.CZ; qubits = [ 0; 1 ] };
          ]
      in
      let config = Config.grape in
      let r =
        Pipeline.compile
          (Engine.session ~config ~name:"rzcz" (Engine.create ~config ()))
          c
      in
      let id = Printf.sprintf "rz(%g) rz(%g) cz" a b in
      Alcotest.(check (float 0.0)) (id ^ " latency") latency r.Pipeline.latency;
      Alcotest.(check (float (1e-12 *. esp))) (id ^ " esp") esp r.Pipeline.esp)
    grape_golden

(* Trace structure: stage spans nest correctly and the top-level spans
   account for (almost) all of the measured compile time. *)
let test_trace_structure () =
  let c = Epoc_benchmarks.Benchmarks.find "qaoa" in
  let r = Pipeline.compile (session ~name:"qaoa" ()) c in
  let events = Trace.events r.Pipeline.trace in
  let top = List.filter (fun (e : Trace.event) -> e.Trace.depth = 0) events in
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) top in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "top-level stage %s present" expected)
        true (List.mem expected names))
    [ "graph"; "candidates"; "select"; "esp" ];
  (* every candidate stage of the declarative pass list shows up *)
  let all_names = List.map (fun (e : Trace.event) -> e.Trace.name) events in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "stage %s present" expected)
        true (List.mem expected all_names))
    [
      "cand0/reorder"; "cand0/partition"; "cand0/synthesis"; "cand0/reorder-vug";
      "cand0/regroup"; "cand0/pulses"; "cand0/schedule";
    ];
  (* spans are well-formed and top-level spans don't overlap *)
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool)
        (e.Trace.name ^ " span has stop >= start")
        true
        (e.Trace.stop_s >= e.Trace.start_s))
    events;
  let rec check_disjoint = function
    | (a : Trace.event) :: (b : Trace.event) :: rest ->
        Alcotest.(check bool)
          (Printf.sprintf "%s ends before %s starts" a.Trace.name b.Trace.name)
          true
          (a.Trace.stop_s <= b.Trace.start_s +. 1e-6);
        check_disjoint (b :: rest)
    | _ -> ()
  in
  check_disjoint top;
  (* nesting: every nested span lies inside an enclosing top-level span *)
  let eps = 1e-6 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.depth > 0 then
        Alcotest.(check bool)
          (e.Trace.name ^ " nested inside a top-level span")
          true
          (List.exists
             (fun (p : Trace.event) ->
               p.Trace.start_s -. eps <= e.Trace.start_s
               && e.Trace.stop_s <= p.Trace.stop_s +. eps)
             top))
    events;
  (* the traced top-level time accounts for ~all of the compile time *)
  let traced = Trace.top_level_s r.Pipeline.trace in
  Alcotest.(check bool)
    (Printf.sprintf "traced %.6fs <= compile %.6fs" traced r.Pipeline.compile_time)
    true
    (traced <= r.Pipeline.compile_time +. 1e-3);
  Alcotest.(check bool)
    (Printf.sprintf "traced %.6fs >= half of compile %.6fs" traced
       r.Pipeline.compile_time)
    true
    (traced >= 0.5 *. r.Pipeline.compile_time);
  (* counters flow through: the pulse stage reports its library traffic *)
  let pulse_ev =
    List.find (fun (e : Trace.event) -> e.Trace.name = "cand0/pulses") events
  in
  Alcotest.(check bool) "pulse stage reports pulses" true
    (match List.assoc_opt "pulses" pulse_ev.Trace.counters with
    | Some n -> n > 0
    | None -> false);
  (* the JSON view lists every event, and its rendering parses back *)
  let json = Trace.to_json r.Pipeline.trace in
  Alcotest.(check bool) "json lists every event" true
    (match Option.bind (J.member "events" json) J.to_list with
    | Some evs -> List.length evs = List.length events
    | None -> false);
  Alcotest.(check bool) "json round-trips" true
    (J.parse_exn (J.to_string json) = json)

(* --- AccQOC similarity ordering ------------------------------------------ *)

(* The greedy nearest-neighbor chain is a pure sequential function: it
   must visit every index exactly once, start at 0, hop to the closest
   unvisited unitary at each step, and return bit-identical output on
   repeated calls.  RZ rotations give a hand-checkable distance
   landscape: phase-invariant HS distance between RZ(a) and RZ(b) grows
   with |a - b|. *)
let test_similarity_chain () =
  let module Mat = Epoc_linalg.Mat in
  let module Circuit = Epoc_circuit.Circuit in
  let rz theta =
    Circuit.unitary
      (Circuit.of_ops 1
         [ { Circuit.gate = Epoc_circuit.Gate.RZ theta; qubits = [ 0 ] } ])
  in
  let us = Array.map rz [| 0.0; 1.5; 0.1; 0.2 |] in
  let chain = Stages.similarity_chain us in
  Alcotest.(check (array int))
    "greedy chain hops to nearest angle" [| 0; 2; 3; 1 |] chain;
  Alcotest.(check (array int))
    "chain identical on repeated calls" chain (Stages.similarity_chain us);
  let big = Array.init 7 (fun i -> rz (float_of_int (7 - i) *. 0.3)) in
  let visited = Array.make 7 false in
  Array.iter (fun i -> visited.(i) <- true) (Stages.similarity_chain big);
  Alcotest.(check bool)
    "chain is a permutation" true (Array.for_all Fun.id visited);
  Alcotest.(check (array int)) "empty input" [||] (Stages.similarity_chain [||]);
  Alcotest.(check (array int))
    "singleton input" [| 0 |]
    (Stages.similarity_chain [| rz 0.4 |])

let grape_run ~similarity_order ~domains bench =
  let c = Epoc_benchmarks.Benchmarks.find bench in
  let config =
    { Config.default with Config.qoc_mode = Config.Grape; similarity_order }
  in
  let pool = Epoc_parallel.Pool.create ~domains () in
  let metrics = Epoc_obs.Metrics.create () in
  let engine = Engine.create ~config ~pool () in
  let session = Engine.session ~config ~metrics ~name:bench engine in
  (Pipeline.compile session c, metrics)

(* Chained solves are sequential by design, so the similarity-ordered
   pipeline must stay bit-identical for any domain count — same contract
   as every other flow. *)
let test_similarity_order_determinism () =
  let r1, _ = grape_run ~similarity_order:true ~domains:1 "simon" in
  let r4, _ = grape_run ~similarity_order:true ~domains:4 "simon" in
  Alcotest.(check (float 0.0))
    "latency identical" r1.Pipeline.latency r4.Pipeline.latency;
  Alcotest.(check (float 0.0)) "esp identical" r1.Pipeline.esp r4.Pipeline.esp;
  Alcotest.(check bool)
    "schedule identical" true
    (r1.Pipeline.schedule = r4.Pipeline.schedule);
  Alcotest.(check bool)
    "stats identical" true (r1.Pipeline.stats = r4.Pipeline.stats)

(* Warm-starting each GRAPE solve from its nearest neighbor's converged
   amplitudes must not cost quality under the same iteration budget:
   the chained run's ESP stays at least as good as the independent
   (cold-init) batch, and the chained counter proves seeding happened. *)
let test_similarity_warm_start_quality () =
  let cold, _ = grape_run ~similarity_order:false ~domains:2 "simon" in
  let chained, m = grape_run ~similarity_order:true ~domains:2 "simon" in
  Alcotest.(check bool)
    "chain seeded at least one solve" true
    (Epoc_obs.Metrics.counter_value m "pulse.chained" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "chained esp %.17g >= cold esp %.17g" chained.Pipeline.esp
       cold.Pipeline.esp)
    true
    (chained.Pipeline.esp >= cold.Pipeline.esp)

(* The gate-based baseline through the shared driver still yields a trace
   with its own pass list. *)
let test_gate_flow_trace () =
  let c = Epoc_benchmarks.Benchmarks.find "bb84" in
  let r = Baselines.compile_gate_based (session ~name:"bb84" ()) c in
  let names =
    List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events r.Pipeline.trace)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "gate stage %s present" expected)
        true (List.mem expected names))
    [ "graph"; "cand0/lower"; "cand0/gate-pulses"; "cand0/schedule" ]

let () =
  Alcotest.run "passes"
    [
      ( "golden",
        [
          Alcotest.test_case "pipeline and baselines match pre-refactor" `Quick
            test_golden_equivalence;
          Alcotest.test_case "baseline domain determinism" `Quick
            test_baseline_domain_determinism;
          Alcotest.test_case "grape mode rz+cz searches" `Quick
            test_grape_golden;
        ] );
      ( "trace",
        [
          Alcotest.test_case "stage spans nest and sum" `Quick
            test_trace_structure;
          Alcotest.test_case "gate flow traces its pass list" `Quick
            test_gate_flow_trace;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "greedy nearest-neighbor chain" `Quick
            test_similarity_chain;
          Alcotest.test_case "ordered grape domain determinism" `Quick
            test_similarity_order_determinism;
          Alcotest.test_case "warm-start chain quality" `Quick
            test_similarity_warm_start_quality;
        ] );
    ]
