(* The one-shot workloads: what [epoc compile] does, in process.  A
   cold sample is a fresh engine with no store: parse the input's QASM
   text, then compile; it runs QSearch and the pulse solver, so it is a
   miss.  Right after it, the same input is compiled again on that warm
   engine, as a process that compiles twice would: a hit, answered from
   the engine's pulse library (GRAPE is skipped; QSearch, which has no
   in-memory reuse, runs again).  Every compile of an input must
   reproduce its first compile exactly.

   Set-up draws the inputs from the seed and applies the redraw rules,
   whose probes compile.  It runs five times, each probe between
   reference runs, and setup_s is the median in nominal seconds
   ([Measure.nominal_ref_s]): a single probe is one compile, as noisy
   as one sample. *)

open Report

type kind = Estimate | Grape

let grape = function Grape -> true | Estimate -> false

let empty_schedule (r : Epoc.Pipeline.result) =
  r.Epoc.Pipeline.schedule.Epoc_pulse.Schedule.placed = []

let has_two_qubit_instruction (r : Epoc.Pipeline.result) =
  List.exists
    (fun (p : Epoc_pulse.Schedule.placed) ->
      List.length p.Epoc_pulse.Schedule.instruction.Epoc_pulse.Schedule.qubits >= 2)
    r.Epoc.Pipeline.schedule.Epoc_pulse.Schedule.placed

(* Inputs of oneshot-estimate: the seven Table-1 circuits plus two
   seeded random 10-qubit, 50-gate circuits compiled for the heavyhex12
   zoo device.  The fixed width and the device keep the compile cost of
   a draw close to that of any other draw (perfbench/README.md), so the
   seed does not set the metrics.  Redraw: a random circuit that
   compiles to an empty schedule.  Each probe is a set-up step. *)
let estimate_inputs steps rs =
  let random i =
    Gen.draw_until rs
      (fun rs ->
        Gen.of_circuit ~device:"heavyhex12"
          (Printf.sprintf "rand%d" i)
          (Gen.random_circuit rs ~n:10 ~length:50))
      (fun inp ->
        Measure.step steps (fun () ->
            let _, r, _ = Inproc.compile ~grape:false inp in
            not (empty_schedule r)))
  in
  let table1 = Measure.step steps Gen.table1 in
  let drawn = List.init 2 random in
  (table1 @ List.map fst drawn, List.fold_left (fun a (_, n) -> a + n) 0 drawn)

(* Inputs of oneshot-grape: five seeded 2-qubit circuits, Z rotations
   then CZ.  Redraw, on an estimate-mode probe: a circuit that compiles
   to an empty schedule or keeps no two-qubit block (such a compile
   would measure no GRAPE).  Each probe is a set-up step. *)
let grape_inputs steps rs =
  let probe (inp : Gen.input) =
    Measure.step steps (fun () ->
        let _, r, _ = Inproc.compile ~grape:false inp in
        (not (empty_schedule r)) && has_two_qubit_instruction r)
  in
  let drawn =
    List.init 5 (fun i ->
        Gen.draw_until rs
          (fun rs -> Gen.of_circuit (Printf.sprintf "grape%d" i) (Gen.phases_then_cz rs))
          probe)
  in
  (List.map fst drawn, List.fold_left (fun a (_, n) -> a + n) 0 drawn)

let draw kind steps ~seed =
  let rs = Random.State.make [| seed |] in
  match kind with
  | Estimate -> estimate_inputs steps rs
  | Grape -> grape_inputs steps rs

(* Reference runs on each side of a cold sample: a GRAPE compile lasts
   seconds, so it gets more of them. *)
let refs_per_side = function Estimate -> 2 | Grape -> 4

(* Warm repeats after each cold sample: a GRAPE hit costs a few percent
   of a cold compile, an estimate-mode hit about as much as one. *)
let hits_per_cold = function Estimate -> 1 | Grape -> 20

let check st kind ?device inp r =
  let problems =
    if grape kind && not (has_two_qubit_instruction r) then
      [ Gen.key inp ^ ": no two-qubit block in GRAPE mode" ]
    else []
  in
  Checks.result st.tally ?device ~problems ~key:(Gen.key inp) r

(* One cold compile between reference runs, checked.  Returns its
   engine and wall seconds; traced samples feed the spans and work
   records instead of the gated samples. *)
let cold st kind ?spans inp =
  let compile () = Inproc.compile ?spans ~grape:(grape kind) inp in
  let (engine, r, device), t0, t1 =
    Measure.bracketed ~k:(refs_per_side kind) (fun () ->
        match spans with
        | None -> compile ()
        | Some t -> Spans.sample t "cold" compile)
  in
  if spans <> None then st.works <- work_of_result r :: st.works
  else add_sample st { key = Gen.key inp; cls = Miss; t0; t1 };
  check st kind ?device inp r;
  (engine, t1 -. t0)

(* The warm repeats of [inp] on [engine], each after a reference run
   (a GRAPE hit lasts tens of milliseconds, shorter than the host's
   speed states). *)
let hits st kind ?spans engine inp =
  let results =
    List.init (hits_per_cold kind) (fun _ ->
        ignore (Measure.reference ());
        let t0 = Measure.now () in
        let compile () = Inproc.compile_on ?spans engine ~grape:(grape kind) inp in
        let r, device =
          match spans with
          | None -> compile ()
          | Some t -> Spans.sample t "hit" compile
        in
        (r, device, t0, Measure.now ()))
  in
  ignore (Measure.reference ());
  List.iter
    (fun (r, device, t0, t1) ->
      if spans <> None then st.works <- work_of_result r :: st.works
      else add_sample st { key = Gen.key inp; cls = Hit; t0; t1 };
      check st kind ?device inp r)
    results

(* Cycle over the inputs until [seconds] have passed; the first pass
   always completes, so every input has a sample. *)
let cycle ~seconds inputs f =
  let t_end = Measure.now () +. seconds in
  let pass = ref 0 in
  while !pass = 0 || Measure.now () < t_end do
    List.iter
      (fun x -> if !pass = 0 || Measure.now () < t_end then f !pass x)
      inputs;
    incr pass
  done

let run kind ~seed ~seconds ~trace =
  let st = state () in
  let setups =
    List.init 5 (fun _ ->
        let steps = Measure.steps () in
        let inputs, redraws = draw kind steps ~seed in
        (steps, inputs, redraws))
  in
  st.setups <- List.map (fun (s, _, _) -> s) setups;
  let _, inputs, redraws = List.hd setups in
  let digests = List.map (fun (_, i, _) -> Gen.digest i) setups in
  if List.exists (( <> ) (List.hd digests)) digests then
    Checks.run_failure st.tally "one seed drew different inputs";
  st.quality_keys <- List.map Gen.key inputs;
  Printf.printf "seed %d inputs %d redraws %d digest %s\n%!" seed
    (List.length inputs) redraws (List.hd digests);
  let spans = Spans.create () in
  cycle ~seconds inputs (fun pass inp ->
      if not trace then begin
        let engine, _ = cold st kind inp in
        hits st kind engine inp
      end
      else begin
        (* untraced and traced cold compiles of one input back to back,
           alternating which goes first *)
        let engine, pair =
          if pass mod 2 = 0 then
            let _, u = cold st kind inp in
            let engine, t = cold st kind ~spans inp in
            (engine, (u, t))
          else
            let engine, t = cold st kind ~spans inp in
            let _, u = cold st kind inp in
            (engine, (u, t))
        in
        st.overhead_pairs <- pair :: st.overhead_pairs;
        hits st kind ~spans engine inp
      end);
  List.iter
    (fun inp ->
      match Checks.golden (Gen.key inp) with
      | Some g ->
          Printf.printf "input %-22s latency_ns=%.1f esp=%.6f\n" (Gen.key inp)
            g.Checks.latency g.Checks.esp
      | None -> ())
    inputs;
  st.peak_rss_mb <- Measure.peak_rss_mb None;
  (st, spans)
