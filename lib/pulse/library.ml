(* Pulse library: the unitary -> pulse lookup table of AccQOC/PAQOC/EPOC.

   Keys are canonical fingerprints of unitary matrices.  EPOC's refinement
   over the earlier frameworks is *global-phase-aware* matching: matrices
   are rotated to a canonical global phase before fingerprinting, so
   e^{i phi} U hits the same entry as U (the paper's "higher cache hit
   rate").  Phase-sensitive matching is kept as an option to reproduce the
   AccQOC/PAQOC behaviour in the ablation benchmark.

   The table is shared across partition blocks, candidate schedules and —
   since the multicore pipeline — across domains, so every access to the
   table and the hit/miss counters goes through a mutex.  For coarse-grain
   parallelism (whole-candidate compilation) the pipeline instead uses
   [fork]/[absorb]: each candidate works on a private copy and the results
   are merged back in a deterministic order. *)

open Epoc_linalg

type entry = {
  unitary : Mat.t; (* canonical-phase representative *)
  duration : float;
  fidelity : float;
  pulse : Epoc_qoc.Grape.pulse option;
  context : string;
      (* reuse context: the Hardware.context of the model it was solved
         on, with "estimate;" in front for an estimate-mode price *)
}

type t = {
  match_global_phase : bool;
  table : (string, entry list) Hashtbl.t; (* bucket per fingerprint *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable cache_hits : int; (* misses resolved from the persistent store *)
}

let create ?(match_global_phase = true) () =
  {
    match_global_phase;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    cache_hits = 0;
  }

let locked lib f =
  Mutex.lock lib.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lib.lock) f

let match_global_phase lib = lib.match_global_phase

let canonicalize lib u = if lib.match_global_phase then Mat.canonical_phase u else u

(* One quantization step shared by both components: round to 5 decimals and
   normalize -0.0 to 0.0, so values within half an ulp of a rounding
   boundary on either side of zero land in the same bucket.  The bucket
   then resolves rounding collisions by the epsilon comparison in
   [matches], so the fingerprint only has to be stable, not exact. *)
let quantize x = (Float.round (x *. 1e5) +. 0.0) *. 1e-5

let fingerprint (u : Mat.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%dx%d" (Mat.rows u) (Mat.cols u));
  for r = 0 to Mat.rows u - 1 do
    for c = 0 to Mat.cols u - 1 do
      let z = Mat.get u r c in
      Buffer.add_string b
        (Printf.sprintf "|%.5f,%.5f" (quantize (Cx.re z)) (quantize (Cx.im z)))
    done
  done;
  Digest.string (Buffer.contents b)

let matches lib stored probe =
  if lib.match_global_phase then Mat.equal_up_to_phase ~eps:1e-6 stored probe
  else Mat.approx_equal ~eps:1e-6 stored probe

(* Bucket key of a canonical unitary under a hardware context.  The
   default context "" keys by the bare matrix fingerprint, so default
   lookups and persisted fingerprints never change; device blocks
   ("<device>#<digest>[qubits]") get their own keys because the same
   unitary priced on different block models yields different pulses. *)
let key ?(context = "") cu =
  let fp = fingerprint cu in
  if context = "" then fp else Digest.string (context ^ fp)

let find ?(context = "") lib (u : Mat.t) =
  let cu = canonicalize lib u in
  let key = key ~context cu in
  locked lib (fun () ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt lib.table key) in
      match List.find_opt (fun e -> matches lib e.unitary cu) bucket with
      | Some e ->
          lib.hits <- lib.hits + 1;
          Some e
      | None ->
          lib.misses <- lib.misses + 1;
          None)

let add ?(context = "") lib (u : Mat.t) ~duration ~fidelity ?pulse () =
  let cu = canonicalize lib u in
  let key = key ~context cu in
  locked lib (fun () ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt lib.table key) in
      Hashtbl.replace lib.table key
        ({ unitary = cu; duration; fidelity; pulse; context } :: bucket))

(* A miss that the persistent on-disk store (lib/cache) resolved instead
   of GRAPE.  Kept next to hits/misses so [stats] shows how much of the
   miss traffic the cross-run cache absorbed. *)
let note_cache_hit lib = locked lib (fun () -> lib.cache_hits <- lib.cache_hits + 1)

(* Private copy sharing no mutable state with [lib]; counters start at
   zero so [absorb] can add the fork's traffic back without double
   counting.  Entry lists are immutable, sharing them is fine. *)
let fork lib =
  locked lib (fun () ->
      {
        match_global_phase = lib.match_global_phase;
        table = Hashtbl.copy lib.table;
        lock = Mutex.create ();
        hits = 0;
        misses = 0;
        cache_hits = 0;
      })

(* Merge a fork's traffic and new entries back into [lib].  Entries whose
   unitary is already matched in [lib] (added there by an earlier absorb)
   are dropped, mirroring what a sequential run against the shared table
   would have stored. *)
let absorb lib forked =
  let new_entries =
    locked forked (fun () ->
        Hashtbl.fold (fun key bucket acc -> (key, bucket) :: acc) forked.table [])
  in
  locked lib (fun () ->
      lib.hits <- lib.hits + forked.hits;
      lib.misses <- lib.misses + forked.misses;
      lib.cache_hits <- lib.cache_hits + forked.cache_hits;
      List.iter
        (fun (key, bucket) ->
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt lib.table key)
          in
          let fresh =
            List.filter
              (fun (e : entry) ->
                not
                  (List.exists
                     (fun (e' : entry) -> matches lib e'.unitary e.unitary)
                     existing))
              bucket
          in
          if fresh <> [] then Hashtbl.replace lib.table key (fresh @ existing))
        new_entries)

type stats = { hits : int; misses : int; cache_hits : int; entries : int }

let stats lib =
  locked lib (fun () ->
      let entries =
        Hashtbl.fold (fun _ b acc -> acc + List.length b) lib.table 0
      in
      { hits = lib.hits; misses = lib.misses; cache_hits = lib.cache_hits; entries })

let hit_rate lib =
  let s = stats lib in
  if s.hits + s.misses = 0 then 0.0
  else float_of_int s.hits /. float_of_int (s.hits + s.misses)

(* Structured counters of the library traffic, for the pass pipeline's
   trace sink (lib/epoc). *)
let counters (s : stats) =
  [
    ("hits", s.hits);
    ("misses", s.misses);
    ("cache_hits", s.cache_hits);
    ("entries", s.entries);
  ]

(* Fold over every stored entry, in unspecified order.  Used by the
   persistent store to sweep a finished run's library onto disk. *)
let fold_entries lib ~init f =
  locked lib (fun () ->
      Hashtbl.fold
        (fun _ bucket acc -> List.fold_left (fun acc e -> f e acc) acc bucket)
        lib.table init)
