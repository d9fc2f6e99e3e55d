(* End-to-end tests of the EPOC pipeline and the baseline flows. *)

open Epoc_circuit
open Epoc

let op gate qubits = { Circuit.gate; qubits }

(* One-shot session on an ephemeral engine: the migration target of the
   deleted [Pipeline.run]-style wrappers.  The pool the old wrappers
   threaded rides on the engine, the library on the session. *)
let session ?(config = Config.default) ?library ?pool ~name () =
  let engine = Engine.create ~config ?pool () in
  Engine.session ~config ?library ~name engine

let compile ?config ?library ?pool ~name c =
  Pipeline.compile (session ?config ?library ?pool ~name ()) c

let suite = Epoc_benchmarks.Benchmarks.suite ()

let test_pipeline_runs_on_all_benchmarks () =
  List.iter
    (fun (name, c) ->
      let r = compile ~name c in
      Alcotest.(check bool) (name ^ " latency positive") true (r.Pipeline.latency >= 0.0);
      Alcotest.(check bool)
        (name ^ " esp in (0,1]")
        true
        (r.Pipeline.esp > 0.0 && r.Pipeline.esp <= 1.0);
      Alcotest.(check bool)
        (name ^ " has pulses")
        true
        (Circuit.gate_count c = 0 || r.Pipeline.stats.Pipeline.pulse_count > 0))
    suite

let test_epoc_beats_or_matches_gate_based () =
  List.iter
    (fun (name, c) ->
      let e = compile ~name c in
      let g = Baselines.compile_gate_based (session ~name ()) c in
      Alcotest.(check bool)
        (Printf.sprintf "%s: epoc %.1f <= gate %.1f" name e.Pipeline.latency
           g.Pipeline.latency)
        true
        (e.Pipeline.latency <= g.Pipeline.latency +. 1e-9))
    suite

let test_epoc_beats_or_matches_paqoc () =
  List.iter
    (fun (name, c) ->
      let e = compile ~name c in
      let p = Baselines.compile_paqoc_like (session ~name ()) c in
      Alcotest.(check bool)
        (Printf.sprintf "%s: epoc %.1f <= paqoc %.1f" name e.Pipeline.latency
           p.Pipeline.latency)
        true
        (e.Pipeline.latency <= p.Pipeline.latency +. 1e-9))
    (Epoc_benchmarks.Benchmarks.table1 ())

let test_regrouping_reduces_latency () =
  (* the Figure 8 claim: grouping never hurts, usually helps *)
  List.iter
    (fun (name, c) ->
      let w = compile ~config:Config.default ~name c in
      let wo = compile ~config:Config.no_regroup ~name c in
      Alcotest.(check bool)
        (Printf.sprintf "%s: grouped %.1f <= ungrouped %.1f" name
           w.Pipeline.latency wo.Pipeline.latency)
        true
        (w.Pipeline.latency <= wo.Pipeline.latency +. 1e-9))
    suite

let test_regrouping_improves_esp () =
  (* the Figure 10 claim, on the benchmarks with enough structure *)
  let improved =
    List.filter
      (fun (name, c) ->
        let w = compile ~config:Config.default ~name c in
        let wo = compile ~config:Config.no_regroup ~name c in
        w.Pipeline.esp >= wo.Pipeline.esp -. 1e-12)
      suite
  in
  Alcotest.(check bool)
    (Printf.sprintf "esp improves on %d/%d benchmarks" (List.length improved)
       (List.length suite))
    true
    (List.length improved >= List.length suite - 2)

let test_shared_library_accumulates () =
  let lib = Epoc_pulse.Library.create () in
  List.iter
    (fun (name, c) -> ignore (compile ~library:lib ~name c))
    [ List.nth suite 0; List.nth suite 1 ];
  let s = Epoc_pulse.Library.stats lib in
  Alcotest.(check bool) "library grew" true (s.Epoc_pulse.Library.entries > 0)

let test_pipeline_schedule_consistent () =
  (* reported latency equals the schedule's critical path *)
  let c = Epoc_benchmarks.Benchmarks.find "simon" in
  let r = compile ~name:"simon" c in
  Alcotest.(check (float 1e-9)) "latency = schedule latency"
    (Epoc_pulse.Schedule.latency r.Pipeline.schedule)
    r.Pipeline.latency

let test_gate_based_virtual_z_free () =
  let c = Circuit.of_ops 1 [ op (Gate.RZ 0.7) [ 0 ]; op Gate.Z [ 0 ] ] in
  let g = Baselines.compile_gate_based (session ~name:"rz" ()) c in
  Alcotest.(check (float 1e-9)) "pure virtual circuit is free" 0.0
    g.Pipeline.latency

(* The gate-based flow prices every gate with [Stages.gate_pulse] on the
   two-qubit default model, whose reference times do not depend on
   width: a 16-qubit circuit compiles without a 2^16-dimensional
   Hamiltonian. *)
let test_gate_based_wide_circuit () =
  let n = 16 in
  let c =
    Circuit.of_ops n
      (List.init n (fun q -> op (if q mod 2 = 0 then Gate.H else Gate.SX) [ q ])
      @ List.init (n - 1) (fun q ->
            op (if q mod 2 = 0 then Gate.CX else Gate.CZ) [ q; q + 1 ]))
  in
  let g = Baselines.compile_gate_based (session ~name:"wide" ()) c in
  let hw = Epoc_qoc.Hardware.make 2 in
  let placed = g.Pipeline.schedule.Epoc_pulse.Schedule.placed in
  Alcotest.(check int) "one pulse per gate" (Circuit.gate_count c)
    (List.length placed);
  List.iter2
    (fun (p : Epoc_pulse.Schedule.placed) (o : Circuit.op) ->
      let i = p.Epoc_pulse.Schedule.instruction in
      let duration, fidelity = Stages.gate_pulse hw o.Circuit.gate in
      Alcotest.(check (float 0.0)) "duration" duration
        i.Epoc_pulse.Schedule.duration;
      Alcotest.(check (float 0.0)) "fidelity" fidelity
        i.Epoc_pulse.Schedule.fidelity)
    placed (Circuit.ops c)

let test_domain_count_determinism () =
  (* the parallel pipeline must be bit-identical for any domain count *)
  let cases = [ List.nth suite 0; List.nth suite 3 ] in
  List.iter
    (fun (name, c) ->
      let run d =
        let pool = Epoc_parallel.Pool.create ~domains:d () in
        let lib = Epoc_pulse.Library.create () in
        let r = compile ~pool ~library:lib ~name c in
        ( r.Pipeline.latency,
          r.Pipeline.esp,
          r.Pipeline.stats,
          Epoc_pulse.Library.stats lib )
      in
      let l1, e1, s1, ls1 = run 1 in
      let l4, e4, s4, ls4 = run 4 in
      Alcotest.(check (float 0.0)) (name ^ " latency identical") l1 l4;
      Alcotest.(check (float 0.0)) (name ^ " esp identical") e1 e4;
      Alcotest.(check bool) (name ^ " stage stats identical") true (s1 = s4);
      Alcotest.(check bool) (name ^ " library stats identical") true (ls1 = ls4))
    cases

let test_empty_circuit () =
  let r = compile ~name:"empty" (Circuit.empty 3) in
  Alcotest.(check (float 1e-9)) "empty latency" 0.0 r.Pipeline.latency;
  Alcotest.(check (float 1e-9)) "empty esp" 1.0 r.Pipeline.esp

let test_single_gate_circuit () =
  let c = Circuit.of_ops 2 [ op Gate.CX [ 0; 1 ] ] in
  let r = compile ~name:"cx" c in
  Alcotest.(check bool)
    (Printf.sprintf "cx latency %.1f in [40, 80]" r.Pipeline.latency)
    true
    (r.Pipeline.latency >= 40.0 && r.Pipeline.latency <= 80.0)

let test_grape_mode_small () =
  (* full GRAPE pulses on a small circuit: latency close to the estimate *)
  let c = Circuit.of_ops 2 [ op Gate.H [ 0 ]; op Gate.CX [ 0; 1 ] ] in
  let est = compile ~name:"bell-est" c in
  let grape = compile ~config:Config.grape ~name:"bell-grape" c in
  let ratio = grape.Pipeline.latency /. est.Pipeline.latency in
  Alcotest.(check bool)
    (Printf.sprintf "grape %.1f vs est %.1f (ratio %.2f)" grape.Pipeline.latency
       est.Pipeline.latency ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_commutation_reorder_soundness () =
  (* reordering must preserve the unitary *)
  let st = Random.State.make [| 41 |] in
  for i = 0 to 9 do
    let c =
      Epoc_benchmarks.Benchmarks.random_circuit ~seed:(Random.State.int st 10_000)
        ~n:4 ~length:(10 + i * 3)
    in
    let r = Reorder.commutation_aware c in
    Alcotest.(check bool)
      (Printf.sprintf "reorder %d sound" i)
      true
      (Circuit.equal_unitary ~eps:1e-7 c r);
    Alcotest.(check int)
      (Printf.sprintf "reorder %d keeps gates" i)
      (Circuit.gate_count c) (Circuit.gate_count r)
  done

let test_reorder_parallelizes_commuting_ring () =
  (* QAOA-style RZZ ring: commutation-aware depth is 2 layers *)
  let ring =
    Circuit.of_ops 6
      (List.init 6 (fun q -> op (Gate.RZZ 0.8) [ q; (q + 1) mod 6 ]))
  in
  Alcotest.(check int) "naive depth" 6 (Circuit.depth ring);
  let r = Reorder.commutation_aware ring in
  Alcotest.(check bool)
    (Printf.sprintf "reordered depth %d <= 3" (Circuit.depth r))
    true
    (Circuit.depth r <= 3)

(* Integration: for every benchmark small enough to simulate, each stage
   chain output is unitarily equivalent to the input circuit. *)
let test_stage_chain_equivalence () =
  List.iter
    (fun (name, c) ->
      if Circuit.n_qubits c <= 6 then begin
        (* zx stage *)
        let zx = Epoc_zx.Zx.optimize c in
        Alcotest.(check bool)
          (name ^ " zx equivalent")
          true
          (Circuit.equal_unitary ~eps:1e-6 c zx.Epoc_zx.Zx.circuit);
        (* reorder *)
        let ro = Reorder.commutation_aware zx.Epoc_zx.Zx.circuit in
        Alcotest.(check bool)
          (name ^ " reorder equivalent")
          true
          (Circuit.equal_unitary ~eps:1e-6 c ro);
        (* partition + vug synthesis reassembly *)
        let blocks = Epoc_partition.Partition.partition ro in
        let n = Circuit.n_qubits c in
        let vug =
          List.fold_left
            (fun acc b ->
              let local = Epoc_partition.Partition.block_circuit b in
              let r = Epoc_synthesis.Synthesis.synthesize_block local in
              Circuit.append acc
                (Epoc_partition.Partition.circuit_on_block_qubits b
                   r.Epoc_synthesis.Synthesis.circuit ~n))
            (Circuit.empty n) blocks
        in
        Alcotest.(check bool)
          (name ^ " vug circuit equivalent")
          true
          (Circuit.equal_unitary ~eps:1e-5 c vug)
      end)
    suite

let test_pulse_csv_export () =
  let hw = Epoc_qoc.Hardware.make 1 in
  let r =
    match
      Epoc_qoc.Grape.optimize_r hw ~target:(Gate.matrix Gate.X) ~slots:8
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "GRAPE failed: %s" (Epoc_error.to_string e)
  in
  let csv = Epoc_qoc.Grape.pulse_to_csv r.Epoc_qoc.Grape.pulse in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 8 slots" 9 (List.length lines);
  Alcotest.(check string) "header" "t_ns,x0,y0" (List.hd lines)

let test_weyl_detects_low_interaction () =
  (* the mechanism behind EPOC's regrouping wins: CX RZ CX has far less
     interaction content than two CNOTs *)
  let block =
    Circuit.of_ops 2
      [ op Gate.CX [ 0; 1 ]; op (Gate.RZ 0.6) [ 1 ]; op Gate.CX [ 0; 1 ] ]
  in
  let c = Epoc_qoc.Weyl.interaction_content (Circuit.unitary block) in
  Alcotest.(check (float 1e-6)) "content = angle/2" 0.3 c

(* --- one qubit-line timing model ------------------------------------------ *)

(* Reference copies of the two list schedulers that [Lines.list_order]
   replaced, kept verbatim apart from naming: [Reorder.commutation_aware]
   on 0/1/6-weighted gates and [Stages.list_schedule] on pulse
   instructions.  The properties below hold the rebuilt functions to
   them. *)
module Reference = struct
  let weight (op : Circuit.op) =
    match op.Circuit.gate with
    | Gate.RZ _ | Gate.Phase _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T
    | Gate.Tdg | Gate.I ->
        0
    | g when Gate.arity g = 1 -> 1
    | _ -> 6

  let dependencies (ops : Circuit.op array) =
    let n = Array.length ops in
    let deps = Array.make n [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let shares =
          List.exists
            (fun q -> List.mem q ops.(j).Circuit.qubits)
            ops.(i).Circuit.qubits
        in
        if shares && not (Peephole.commutes ops.(i) ops.(j)) then
          deps.(j) <- i :: deps.(j)
      done
    done;
    deps

  let commutation_aware (c : Circuit.t) =
    let ops = Array.of_list (Circuit.ops c) in
    let n = Array.length ops in
    let deps = dependencies ops in
    let emitted = Array.make n false in
    let finish = Array.make n 0 in
    let line = Array.make (Circuit.n_qubits c) 0 in
    let order = ref [] in
    for _ = 1 to n do
      let best = ref (-1) in
      let best_start = ref max_int in
      for i = 0 to n - 1 do
        if (not emitted.(i)) && List.for_all (fun d -> emitted.(d)) deps.(i)
        then begin
          let dep_ready =
            List.fold_left (fun acc d -> max acc finish.(d)) 0 deps.(i)
          in
          let line_ready =
            List.fold_left
              (fun acc q -> max acc line.(q))
              0 ops.(i).Circuit.qubits
          in
          let start = max dep_ready line_ready in
          if start < !best_start then begin
            best_start := start;
            best := i
          end
        end
      done;
      let i = !best in
      emitted.(i) <- true;
      let fin = !best_start + weight ops.(i) in
      finish.(i) <- fin;
      List.iter (fun q -> line.(q) <- fin) ops.(i).Circuit.qubits;
      order := ops.(i) :: !order
    done;
    Circuit.of_ops (Circuit.n_qubits c) (List.rev !order)

  let instructions_commute ops_a ops_b =
    List.for_all
      (fun (a : Circuit.op) ->
        List.for_all
          (fun (b : Circuit.op) ->
            (not
               (List.exists
                  (fun q -> List.mem q b.Circuit.qubits)
                  a.Circuit.qubits))
            || Peephole.commutes a b)
          ops_b)
      ops_a

  let list_schedule
      (items : (Epoc_pulse.Schedule.instruction * Circuit.op list) list) =
    let module S = Epoc_pulse.Schedule in
    let arr = Array.of_list items in
    let n = Array.length arr in
    let deps = Array.make n [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let ii, iops = arr.(i) and ji, jops = arr.(j) in
        let shares =
          List.exists (fun q -> List.mem q ji.S.qubits) ii.S.qubits
        in
        if shares && not (instructions_commute iops jops) then
          deps.(j) <- i :: deps.(j)
      done
    done;
    let emitted = Array.make n false in
    let finish = Array.make n 0.0 in
    let line : (int, float) Hashtbl.t = Hashtbl.create 16 in
    let line_time q = Option.value ~default:0.0 (Hashtbl.find_opt line q) in
    let order = ref [] in
    for _ = 1 to n do
      let best = ref (-1) in
      let best_start = ref infinity in
      for i = 0 to n - 1 do
        if (not emitted.(i)) && List.for_all (fun d -> emitted.(d)) deps.(i)
        then begin
          let instr, _ = arr.(i) in
          let dep_ready =
            List.fold_left (fun acc d -> Float.max acc finish.(d)) 0.0 deps.(i)
          in
          let line_ready =
            List.fold_left
              (fun acc q -> Float.max acc (line_time q))
              0.0 instr.S.qubits
          in
          let start = Float.max dep_ready line_ready in
          if start < !best_start then begin
            best_start := start;
            best := i
          end
        end
      done;
      let i = !best in
      let instr, _ = arr.(i) in
      emitted.(i) <- true;
      let fin = !best_start +. instr.S.duration in
      finish.(i) <- fin;
      List.iter (fun q -> Hashtbl.replace line q fin) instr.S.qubits;
      order := instr :: !order
    done;
    List.rev !order
end

(* [k] distinct qubits of [0, n), drawn from [st]. *)
let random_qubits st ~n k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let q = Random.State.int st n in
      go (if List.mem q acc then acc else q :: acc)
  in
  go []

(* A random gate on at most [width] qubits: virtual, pulsed single-qubit,
   commuting and non-commuting two-qubit gates, and three-qubit ones. *)
let random_gate st ~width =
  let angle () = Random.State.float st 6.28 in
  let gates =
    [|
      Gate.H; Gate.X; Gate.SX; Gate.T; Gate.S; Gate.Z; Gate.I;
      Gate.RZ (angle ()); Gate.CX; Gate.CZ; Gate.RZZ (angle ()); Gate.CCX;
      Gate.CCZ;
    |]
  in
  let rec pick () =
    let g = gates.(Random.State.int st (Array.length gates)) in
    if Gate.arity g <= width then g else pick ()
  in
  pick ()

let random_circuit ~seed ~n ~length =
  let st = Random.State.make [| seed |] in
  Circuit.of_ops n
    (List.init length (fun _ ->
         let g = random_gate st ~width:n in
         { Circuit.gate = g; qubits = random_qubits st ~n (Gate.arity g) }))

(* Pulse instructions on 1-3 of [n] lines, each with 1-3 gates on its
   qubits; durations come from a small set with repeats and zero, so many
   items tie on their start.  Labels are the item indices. *)
let random_items ~seed ~n ~length =
  let st = Random.State.make [| seed |] in
  let durations = [| 0.0; 10.0; 10.0; 25.0; 35.5; 60.0; 60.0 |] in
  List.init length (fun i ->
      let qubits = random_qubits st ~n (1 + Random.State.int st (min 3 n)) in
      let width = List.length qubits in
      let ops =
        List.init
          (1 + Random.State.int st 3)
          (fun _ ->
            let g = random_gate st ~width in
            let local = random_qubits st ~n:width (Gate.arity g) in
            { Circuit.gate = g; qubits = List.map (List.nth qubits) local })
      in
      ( {
          Epoc_pulse.Schedule.qubits;
          duration = durations.(Random.State.int st (Array.length durations));
          fidelity = 0.99;
          label = string_of_int i;
          pulse = None;
        },
        ops ))

let arb_case =
  QCheck.make
    ~print:(fun (seed, n, length) ->
      Printf.sprintf "seed %d, %d qubits, %d items" seed n length)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 2 6) (int_range 0 40))

let prop_list_order_reorder =
  QCheck.Test.make ~name:"list order reproduces commutation-aware reorder"
    ~count:300 arb_case (fun (seed, n, length) ->
      let c = random_circuit ~seed ~n ~length in
      Circuit.ops (Reorder.commutation_aware c)
      = Circuit.ops (Reference.commutation_aware c))

let prop_list_order_schedule =
  QCheck.Test.make ~name:"list order reproduces the pulse list schedule"
    ~count:300 arb_case (fun (seed, n, length) ->
      let items = random_items ~seed ~n ~length in
      let labels = List.map (fun (i : Epoc_pulse.Schedule.instruction) ->
          i.Epoc_pulse.Schedule.label)
      in
      labels (Stages.list_schedule ~n items)
      = labels (Reference.list_schedule items))

(* A degraded block plays the gate flow's own instructions: its price is
   that flow's latency and fidelity product on the block's circuit. *)
let test_gate_fallback_is_gate_flow () =
  let blocks =
    List.concat_map
      (fun (_, c) ->
        List.map Epoc_partition.Partition.block_circuit
          (Epoc_partition.Partition.partition c))
      suite
  in
  List.iter
    (fun local ->
      let duration, fidelity =
        Stages.gate_fallback
          (Epoc_qoc.Hardware.make (Circuit.n_qubits local))
          local
      in
      let g = Baselines.compile_gate_based (session ~name:"block" ()) local in
      Alcotest.(check (float 0.0)) "latency" g.Pipeline.latency duration;
      Alcotest.(check (float 0.0)) "fidelity product"
        (List.fold_left
           (fun f (p : Epoc_pulse.Schedule.placed) ->
             f *. p.Epoc_pulse.Schedule.instruction.Epoc_pulse.Schedule.fidelity)
           1.0 g.Pipeline.schedule.Epoc_pulse.Schedule.placed)
        fidelity)
    blocks

(* The estimator's wide-block critical path prices [id] like every other
   virtual gate: free. *)
let test_estimate_id_free () =
  let hw = Epoc_qoc.Hardware.make 3 in
  let entangling = [ op Gate.CX [ 0; 1 ]; op Gate.CX [ 1; 2 ] ] in
  let est ops =
    (Epoc_qoc.Latency.estimate hw (Circuit.of_ops 3 ops))
      .Epoc_qoc.Latency.est_duration
  in
  Alcotest.(check (float 0.0)) "id costs nothing" (est entangling)
    (est
       ((op Gate.I [ 0 ] :: op Gate.I [ 0 ] :: entangling)
       @ [ op Gate.I [ 2 ] ]))

let () =
  Alcotest.run "epoc"
    [
      ( "pipeline",
        [
          Alcotest.test_case "runs on all benchmarks" `Quick
            test_pipeline_runs_on_all_benchmarks;
          Alcotest.test_case "beats gate-based" `Quick
            test_epoc_beats_or_matches_gate_based;
          Alcotest.test_case "beats paqoc" `Quick test_epoc_beats_or_matches_paqoc;
          Alcotest.test_case "regroup reduces latency" `Quick
            test_regrouping_reduces_latency;
          Alcotest.test_case "regroup improves esp" `Quick
            test_regrouping_improves_esp;
          Alcotest.test_case "shared library" `Quick test_shared_library_accumulates;
          Alcotest.test_case "domain count determinism" `Quick
            test_domain_count_determinism;
          Alcotest.test_case "schedule consistent" `Quick
            test_pipeline_schedule_consistent;
          Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
          Alcotest.test_case "single cx" `Quick test_single_gate_circuit;
          Alcotest.test_case "grape mode small" `Slow test_grape_mode_small;
          Alcotest.test_case "stage chain equivalence" `Quick
            test_stage_chain_equivalence;
          Alcotest.test_case "pulse csv export" `Quick test_pulse_csv_export;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "virtual z free" `Quick test_gate_based_virtual_z_free;
          Alcotest.test_case "wide circuit" `Quick test_gate_based_wide_circuit;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "soundness" `Quick test_commutation_reorder_soundness;
          Alcotest.test_case "parallelizes ring" `Quick
            test_reorder_parallelizes_commuting_ring;
        ] );
      ( "weyl",
        [
          Alcotest.test_case "low interaction detected" `Quick
            test_weyl_detects_low_interaction;
        ] );
      ( "lines",
        [
          QCheck_alcotest.to_alcotest prop_list_order_reorder;
          QCheck_alcotest.to_alcotest prop_list_order_schedule;
          Alcotest.test_case "gate fallback is the gate flow" `Quick
            test_gate_fallback_is_gate_flow;
          Alcotest.test_case "estimate prices id free" `Quick
            test_estimate_id_free;
        ] );
    ]
