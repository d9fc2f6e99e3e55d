(* Generate a real GRAPE pulse for a CNOT and export the waveform.

   Run with:  dune exec examples/pulse_export.exe [out.csv]
   Writes the optimized control envelopes (one column per X/Y drive) as
   CSV, ready for plotting or an AWG toolchain. *)

open Epoc_circuit
open Epoc_qoc

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "cnot_pulse.csv" in
  let hw = Hardware.make 2 in
  let target = Gate.matrix Gate.CX in
  Printf.printf "searching minimal CNOT pulse duration (GRAPE)...\n%!";
  let guess =
    Latency.guess_slots ~unitary:target hw
      (Circuit.of_ops 2 [ { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] } ])
  in
  match Latency.find_min_duration_r ~initial_guess:guess hw target with
  | Error e ->
      prerr_endline ("duration search failed: " ^ Epoc_error.to_string e)
  | Ok s ->
      Printf.printf "minimum duration: %.1f ns at fidelity %.5f (%d GRAPE runs)\n"
        s.Latency.duration s.Latency.fidelity s.Latency.grape_runs;
      let csv = Grape.pulse_to_csv s.Latency.result.Grape.pulse in
      let oc = open_out path in
      output_string oc csv;
      close_out oc;
      Printf.printf "wrote %d-slot waveform for %d channels to %s\n"
        (Grape.slot_count s.Latency.result.Grape.pulse)
        (Array.length s.Latency.result.Grape.pulse.Grape.labels)
        path;
      (* show the first few rows inline *)
      String.split_on_char '\n' csv
      |> List.filteri (fun i _ -> i < 6)
      |> List.iter print_endline
