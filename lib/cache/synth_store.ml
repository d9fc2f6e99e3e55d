(* Persistent synthesis store: the second instance of [Persistent.Make].

   A record is one synthesized block: the block's local circuit (the
   key, and what a hit is verified against), the VUG + CNOT circuit
   synthesis produced, and the attempt metadata (source, instantiation
   distance, search counters).  Keying by the op list rather than by the
   block unitary matters because a result is not a function of the
   unitary alone: a [Fallback] result is [Synthesis.vug_form] of the
   block's own gates, so two blocks with one unitary and different gates
   (a lone [cz(0,1)] and [cz(1,0)]) have different results, and a
   unitary key replayed the first one's circuit for both.  Circuits
   serialize as an op list; named gates round-trip through (name,
   params) and [Unitary] gates carry their matrix inline, so a replayed
   circuit is structurally identical — same gates, same float bits — to
   the one the cold run synthesized. *)

open Epoc_linalg
open Epoc_circuit
open Epoc_synthesis
module Json = Epoc_obs.Json

(* v2 keys records by the block's op list; v1 files (unitary keys) are
   quarantined and refilled. *)
let schema_version = 2

type entry = {
  block : Circuit.t;
  circuit : Circuit.t;
  source : Synthesis.source;
  distance : float;
  expansions : int;
  prunes : int;
}

(* --- gate / circuit (de)serialization -------------------------------------- *)

let gate_to_json (g : Gate.t) =
  let base = [ ("g", Json.Str (Gate.name g)) ] in
  match g with
  | Gate.Unitary { matrix; _ } ->
      Json.Obj
        (base
        @ [
            ("gd", Json.of_int (Mat.rows matrix));
            ("m", Mat_json.to_json matrix);
          ])
  | _ -> (
      match Gate.params g with
      | [] -> Json.Obj base
      | ps -> Json.Obj (base @ [ ("p", Json.Arr (List.map (fun v -> Json.Num v) ps)) ]))

let gate_of_json j =
  match Option.bind (Json.member "g" j) Json.to_str with
  | None -> None
  | Some name -> (
      let params =
        match Json.member "p" j with
        | Some pj ->
            Option.value ~default:[]
              (Option.map (List.filter_map Json.to_num) (Json.to_list pj))
        | None -> []
      in
      match Gate.of_name name params with
      | Some _ as g -> g
      | None -> (
          (* anything else (VUGs, daggered composites) must carry its
             matrix *)
          match
            ( Option.bind (Json.member "gd" j) Json.to_int,
              Json.member "m" j )
          with
          | Some gd, Some mj when gd >= 1 ->
              Option.map
                (fun matrix -> Gate.Unitary { name; matrix })
                (Mat_json.of_json gd mj)
          | _ -> None))

let op_to_json (op : Circuit.op) =
  match gate_to_json op.Circuit.gate with
  | Json.Obj fields ->
      Json.Obj
        (fields @ [ ("q", Json.Arr (List.map Json.of_int op.Circuit.qubits)) ])
  | j -> j

let op_of_json j =
  match
    ( gate_of_json j,
      Option.bind (Json.member "q" j) Json.to_list )
  with
  | Some gate, Some qs ->
      let qubits = List.filter_map Json.to_int qs in
      if List.length qubits = List.length qs then
        Some { Circuit.gate; qubits }
      else None
  | _ -> None

let circuit_to_json (c : Circuit.t) =
  Json.Obj
    [
      ("n", Json.of_int (Circuit.n_qubits c));
      ("ops", Json.Arr (List.map op_to_json (Circuit.ops c)));
    ]

let circuit_of_json j =
  match
    ( Option.bind (Json.member "n" j) Json.to_int,
      Option.bind (Json.member "ops" j) Json.to_list )
  with
  | Some n, Some ops when n >= 1 ->
      let parsed = List.map op_of_json ops in
      if List.exists Option.is_none parsed then None
      else begin
        (* [of_ops] validates arities and qubit ranges; a corrupt record
           must surface as a skipped line, never an exception. *)
        try Some (Circuit.of_ops n (List.filter_map Fun.id parsed))
        with Invalid_argument _ -> None
      end
  | _ -> None

let source_to_string = function
  | Synthesis.Synthesized -> "synthesized"
  | Synthesis.Fallback -> "fallback"

let source_of_string = function
  | "synthesized" -> Some Synthesis.Synthesized
  | "fallback" -> Some Synthesis.Fallback
  | _ -> None

(* --- the codec -------------------------------------------------------------- *)

(* The key is the digest of the block's serialized op list: the JSON
   encoding is exact (floats print round-trippably), so a record read
   back from disk keys exactly as it did when written. *)
let block_key (block : Circuit.t) =
  Digest.to_hex (Digest.string (Json.to_string (circuit_to_json block)))

let same_block (a : Circuit.t) (b : Circuit.t) =
  Circuit.n_qubits a = Circuit.n_qubits b && Circuit.ops a = Circuit.ops b

module Codec = struct
  type nonrec entry = entry

  let format_name = "epoc-synth-cache"
  let schema_version = schema_version
  let records_file = "synth.jsonl"
  let key e = block_key e.block
  let equal a b = same_block a.block b.block

  let to_line ~key (e : entry) =
    Json.to_string
      (Json.Obj
         [
           ("key", Json.Str key);
           ("source", Json.Str (source_to_string e.source));
           ("distance", Json.Num e.distance);
           ("expansions", Json.of_int e.expansions);
           ("prunes", Json.of_int e.prunes);
           ("block", circuit_to_json e.block);
           ("circuit", circuit_to_json e.circuit);
         ])

  let of_line line =
    match Json.parse line with
    | Error m -> Error m
    | Ok j -> (
        match
          ( Option.bind (Json.member "source" j) Json.to_str,
            Option.bind (Json.member "distance" j) Json.to_num,
            Json.member "block" j,
            Json.member "circuit" j )
        with
        | Some src, Some distance, Some bj, Some cj -> (
            match
              (circuit_of_json bj, circuit_of_json cj, source_of_string src)
            with
            | Some block, Some circuit, Some source ->
                let int_field name =
                  Option.value ~default:0
                    (Option.bind (Json.member name j) Json.to_int)
                in
                Ok
                  {
                    block;
                    circuit;
                    source;
                    distance;
                    expansions = int_field "expansions";
                    prunes = int_field "prunes";
                  }
            | None, _, _ -> Error "bad block"
            | _, None, _ -> Error "bad circuit"
            | _, _, None -> Error ("unknown source " ^ src))
        | _ -> Error "missing record fields")
end

module P = Persistent.Make (Codec)

type t = P.t

let open_dir dir = P.open_dir dir
let pending_count = P.pending_count
let loaded_count = P.loaded_count
let skipped_count = P.skipped_count
let merged_count = P.merged_count
let flush = P.flush

let find t (block : Circuit.t) =
  P.find t ~key:(block_key block) (fun e -> same_block e.block block)

let record t (block : Circuit.t) (r : Synthesis.block_result) =
  if r.Synthesis.failure = None then
    P.record t ~key:(block_key block)
      {
        block;
        circuit = r.Synthesis.circuit;
        source = r.Synthesis.source;
        distance = r.Synthesis.distance;
        expansions = r.Synthesis.expansions;
        prunes = r.Synthesis.prunes;
      }

let to_block_result (e : entry) : Synthesis.block_result =
  {
    Synthesis.circuit = e.circuit;
    source = e.source;
    distance = e.distance;
    expansions = 0;
    prunes = 0;
    open_max = 0;
    failure = None;
  }
