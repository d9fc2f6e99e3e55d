(* Pulse schedules: placing block pulses on qubit lines.

   A pulse instruction occupies all its qubit lines for its duration; the
   schedule places instructions ASAP in program order ([Lines.asap]) and
   the circuit latency is the critical path over qubit lines — exactly the
   qubit-line utilization model the paper's latency numbers use. *)

type instruction = {
  qubits : int list; (* global qubit indices *)
  duration : float; (* ns *)
  fidelity : float; (* realized pulse fidelity *)
  label : string;
  pulse : Epoc_qoc.Grape.pulse option;
  (* the control amplitudes realizing this instruction (Grape mode;
     [None] in Estimate mode and for degraded gate-pulse playback) —
     the waveform payload of the pulse-IR exporter *)
}

type placed = { instruction : instruction; start : float }

type t = {
  n : int;
  placed : placed list; (* in placement order *)
  latency : float; (* critical path, ns *)
}

let schedule ~n (instructions : instruction list) =
  let starts, latency =
    Epoc_circuit.Lines.asap ~n
      ~qubits:(fun i -> i.qubits)
      ~duration:(fun i -> i.duration)
      instructions
  in
  let placed =
    List.map2 (fun instruction start -> { instruction; start }) instructions
      starts
  in
  { n; placed; latency }

let latency s = s.latency

let instruction_count s = List.length s.placed

(* Mean busy fraction of the qubit lines: the parallelism measure behind
   the paper's "utilization rate of the qubit lines" argument. *)
let utilization s =
  if s.latency <= 0.0 then 1.0
  else begin
    let busy = Array.make s.n 0.0 in
    List.iter
      (fun p ->
        List.iter
          (fun q -> busy.(q) <- busy.(q) +. p.instruction.duration)
          p.instruction.qubits)
      s.placed;
    Array.fold_left ( +. ) 0.0 busy /. (float_of_int s.n *. s.latency)
  end

let pp ppf s =
  Fmt.pf ppf "@[<v>schedule: %d instructions, latency %.1f ns@," (instruction_count s)
    s.latency;
  List.iter
    (fun p ->
      Fmt.pf ppf "  t=%7.1f  %-12s q%a  %.1f ns (f=%.4f)@," p.start
        p.instruction.label
        Fmt.(list ~sep:comma int)
        p.instruction.qubits p.instruction.duration p.instruction.fidelity)
    s.placed;
  Fmt.pf ppf "@]"

(* --- stage report ------------------------------------------------------- *)

(* Structured counters of a built schedule, for the pass pipeline's trace
   sink (lib/epoc).  Latency is rounded to whole ns and utilization to
   percent, since trace counters are integers. *)
let counters s =
  [
    ("instructions", instruction_count s);
    ("latency_ns", int_of_float (Float.round s.latency));
    ("utilization_pct", int_of_float (Float.round (100.0 *. utilization s)));
  ]
