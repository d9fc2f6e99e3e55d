(* Persistent pulse store: the on-disk half of the pulse library.

   EPOC's in-memory library only amortizes GRAPE work *within* one
   compilation; AccQOC-style pre-generated caches amortize it across
   runs.  A [Store.t] persists the library's own entries
   ([Library.entry]) under the library's own bucket keys onto an
   append-only record file, so a second `epoc` invocation on the same
   (or a similar) circuit starts from the previous run's pulses.  The
   key is the one the [pulses] pass computed for the pulse job
   ([Ir.pulse_job.jkey] = [Library.key ~context cu]), and no store call
   canonicalizes or fingerprints: [find] takes that key and the session
   library's matcher, [nearest] the job's canonical form, and [record]
   the key and library entry of a pulse the run solved
   ([Ir.fresh_pulses]), so a hit enters the library as the stored entry
   itself.

   Every record carries the reuse context of its entry: the
   [Hardware.context] of the model its pulse was solved on, prefixed
   with ["estimate;"] for an estimate-mode price.  [""] (a GRAPE pulse
   on the default chain) keys by the bare fingerprint.  Queries answer
   only within one context, so an estimate never answers a GRAPE probe
   or the reverse, and a device block's pulse never answers a
   default-chain probe, the reverse, or a probe on another calibration
   of the same device name (device contexts carry a digest of the
   device).

   The store has no phase convention of its own.  Every record sits
   under the fingerprint of the matrix it holds, so a probe only meets
   records whose matrices quantize like its own: for a phase-invariant
   probe (canonical phase) that is its phase class, and for a
   phase-sensitive probe (the AccQOC/PAQOC configs) the quantization
   includes the phase, so a record for X never answers such a probe for
   iX.  Within the bucket the session library's [matches] decides, as
   it does for the library itself.  Deduplication compares up to global
   phase (the codec's [equal]), which only ever merges records of one
   bucket: matrices that agree to the fingerprint's 5 decimals, phase
   included.

   All of the JSONL mechanics — versioned header, quarantine on header
   mismatch, torn-trailing-record skip, lockf + mutex flush locking,
   append-only flush — live in the generic [Persistent.Make] functor;
   this module is the pulse codec plus the pulse-shaped queries (exact
   [find], Hilbert-Schmidt [nearest] for GRAPE warm starts). *)

open Epoc_linalg
open Epoc_pulse
module Json = Epoc_obs.Json

let log_src = Persistent.log_src
let schema_version = 3

(* --- (de)serialization ---------------------------------------------------- *)

let pulse_to_json (p : Epoc_qoc.Grape.pulse) =
  Json.Obj
    [
      ("dt", Json.Num p.Epoc_qoc.Grape.dt);
      ( "labels",
        Json.Arr
          (Array.to_list (Array.map (fun l -> Json.Str l) p.Epoc_qoc.Grape.labels))
      );
      ( "amplitudes",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun row ->
                  Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) row)))
                p.Epoc_qoc.Grape.amplitudes)) );
    ]

let pulse_of_json j =
  match
    ( Option.bind (Json.member "dt" j) Json.to_num,
      Option.bind (Json.member "labels" j) Json.to_list,
      Option.bind (Json.member "amplitudes" j) Json.to_list )
  with
  | Some dt, Some labels, Some rows ->
      let labels = List.filter_map Json.to_str labels in
      let amps =
        List.map
          (fun row ->
            Option.map
              (fun l -> Array.of_list (List.filter_map Json.to_num l))
              (Json.to_list row))
          rows
      in
      if List.exists Option.is_none amps then None
      else
        Some
          {
            Epoc_qoc.Grape.dt;
            labels = Array.of_list labels;
            amplitudes = Array.of_list (List.filter_map Fun.id amps);
          }
  | _ -> None

module Codec = struct
  type entry = Library.entry

  let format_name = "epoc-pulse-cache"
  let schema_version = schema_version
  let records_file = "pulses.jsonl"

  (* Keys are the library's raw digests; the record line holds their
     hex. *)
  let key (e : entry) = Library.key ~context:e.context e.unitary

  let equal (a : entry) (b : entry) =
    a.context = b.context
    && Mat.equal_up_to_phase ~eps:1e-6 a.unitary b.unitary

  let to_line ~key (e : entry) =
    Json.to_string
      (Json.Obj
         [
           ("key", Json.Str (Digest.to_hex key));
           ("context", Json.Str e.context);
           ("dim", Json.of_int (Mat.rows e.unitary));
           ("duration", Json.Num e.duration);
           ("fidelity", Json.Num e.fidelity);
           ("unitary", Mat_json.to_json e.unitary);
           ( "pulse",
             match e.pulse with None -> Json.Null | Some p -> pulse_to_json p );
         ])

  let of_line line =
    match Json.parse line with
    | Error m -> Error m
    | Ok j -> (
        match
          ( Option.bind (Json.member "context" j) Json.to_str,
            Option.bind (Json.member "dim" j) Json.to_int,
            Option.bind (Json.member "duration" j) Json.to_num,
            Option.bind (Json.member "fidelity" j) Json.to_num,
            Json.member "unitary" j )
        with
        | Some context, Some dim, Some duration, Some fidelity, Some uj
          when dim >= 1 -> (
            match Mat_json.of_json dim uj with
            | None -> Error "bad unitary array"
            | Some unitary ->
                let pulse =
                  match Json.member "pulse" j with
                  | None | Some Json.Null -> None
                  | Some pj -> pulse_of_json pj
                in
                Ok { Library.unitary; duration; fidelity; pulse; context })
        | _ -> Error "missing record fields")
end

module P = Persistent.Make (Codec)

type t = P.t

let open_dir = P.open_dir

(* --- queries --------------------------------------------------------------- *)

let pending_count = P.pending_count
let loaded_count = P.loaded_count
let skipped_count = P.skipped_count
let merged_count = P.merged_count

let find t ~key ~matches (cu : Mat.t) =
  P.find t ~key (fun (e : Library.entry) -> matches e.unitary cu)

(* Closest stored pulse of the same dimension and context under the
   global-phase-invariant Hilbert-Schmidt distance; only entries that
   carry control amplitudes qualify (the point is seeding GRAPE).
   [max_distance] bounds how dissimilar a warm start may be — past it, a
   random cold start converges just as fast. *)
let nearest ?(context = "") ?(max_distance = 0.15) t (cu : Mat.t) =
  let dim = Mat.rows cu in
  P.fold t ~init:None (fun (e : Library.entry) best ->
      if e.pulse = None || Mat.rows e.unitary <> dim || e.context <> context
      then best
      else
        let d = Mat.hs_distance e.unitary cu in
        match best with
        | Some (_, bd) when bd <= d -> best
        | _ when d <= max_distance -> Some (e, d)
        | _ -> best)

(* --- recording / flush ----------------------------------------------------- *)

let record = P.record

let flush = P.flush
