(* Output checks.  Every compiled schedule goes through pulse-IR export,
   strict import (which re-checks ASAP start times and latency) and a
   byte-identical re-export; every repeat of an input, store hits
   included, must reproduce the first compile's latency, ESP and
   schedule exactly.  Failures count against the run. *)

module Pulseir = Epoc_pulseir.Pulseir

type output = { latency : float; esp : float; ir : string }

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** requests with any error, degradation or check failure *)
  mutable errors : int;
  mutable degraded : int;
  mutable check_failures : int;
  mutable notes : string list;  (** first few failure descriptions *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    errors = 0;
    degraded = 0;
    check_failures = 0;
    notes = [];
  }

let note t msg = if List.length t.notes < 8 then t.notes <- msg :: t.notes

(* Seconds per pulse-IR round trip, measured outside every timed
   sample. *)
let roundtrip_s = ref []

(* Export, strict import, re-export: the IR text when the round trip is
   byte-identical. *)
let roundtrip ?device (schedule : Epoc_pulse.Schedule.t) =
  let t0 = Measure.now () in
  let r =
    match
      let text = Pulseir.to_string (Pulseir.export ?device ~name:"perfbench" schedule) in
      (text, Pulseir.to_string (Pulseir.of_string text))
    with
    | text, again when String.equal text again -> Ok text
    | _ -> Error "pulse-IR re-export differs"
    | exception Invalid_argument m -> Error ("pulse-IR import: " ^ m)
  in
  roundtrip_s := (Measure.now () -. t0) :: !roundtrip_s;
  r

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* First outputs per input key; later outputs must equal them. *)
let goldens : (string, output) Hashtbl.t = Hashtbl.create 64

let golden key = Hashtbl.find_opt goldens key

let against_golden key (o : output) =
  match Hashtbl.find_opt goldens key with
  | None ->
      Hashtbl.replace goldens key o;
      Ok ()
  | Some g ->
      if not (same_bits g.latency o.latency) then
        Error (Printf.sprintf "%s: latency %.17g <> %.17g" key o.latency g.latency)
      else if not (same_bits g.esp o.esp) then
        Error (Printf.sprintf "%s: esp %.17g <> %.17g" key o.esp g.esp)
      else if not (String.equal g.ir o.ir) then
        Error (Printf.sprintf "%s: schedule differs from the first compile" key)
      else Ok ()

(* Record one attempted request: [problems] lists what went wrong with
   it (empty for a clean, checked request). *)
let record t ~error ~degraded problems =
  t.attempted <- t.attempted + 1;
  if error then t.errors <- t.errors + 1;
  if degraded then t.degraded <- t.degraded + 1;
  if problems <> [] then t.check_failures <- t.check_failures + 1;
  List.iter (note t) problems;
  if error || degraded || problems <> [] then t.failed <- t.failed + 1

(* A failed run-level check (not tied to one request). *)
let run_failure t msg =
  t.check_failures <- t.check_failures + 1;
  t.failed <- t.failed + 1;
  note t msg

(* Check one in-process compile result of the input keyed [key];
   [problems] are failures the caller already found in it. *)
let result t ?device ?(problems = []) ~key (r : Epoc.Pipeline.result) =
  let degraded = r.Epoc.Pipeline.stats.Epoc.Pipeline.degraded_blocks > 0 in
  let found =
    match roundtrip ?device r.Epoc.Pipeline.schedule with
    | Error m -> [ key ^ ": " ^ m ]
    | Ok ir -> (
        match
          against_golden key
            { latency = r.Epoc.Pipeline.latency; esp = r.Epoc.Pipeline.esp; ir }
        with
        | Ok () -> []
        | Error m -> [ m ])
  in
  record t ~error:false ~degraded (problems @ found)
