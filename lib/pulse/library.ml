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
  unitary : Mat.t; (* the canonicalized unitary its key digests *)
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
}

let create ?(match_global_phase = true) () =
  {
    match_global_phase;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
  }

let locked lib f =
  Mutex.lock lib.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lib.lock) f

let match_global_phase lib = lib.match_global_phase

let canonicalize lib u = if lib.match_global_phase then Mat.canonical_phase u else u

(* The fingerprint digests the text "<rows>x<cols>" followed, per entry
   in row-major order, by "|<re>,<im>", where each part is
   [Printf.sprintf "%.5f"] of the value quantized to 5 decimals:
   q·1e-5 for the integer q = round(v·1e5).  Persisted pulse-store keys
   rest on this exact text.  It is written here without [Printf]: for
   |q| < 1e14, q·1e-5 lies within 3e-7 of q/10^5, so "%.5f" prints q's
   own digits — a sign, the integer part q / 10^5 and five zero-padded
   decimals q mod 10^5.  Larger |q|, nan and inf go through [Printf].
   The sign is q's, so a value that rounds to zero from below prints
   "0.00000" like one from above and lands in the same bucket.  The
   bucket then resolves rounding collisions by the epsilon comparison
   in [matches], so the fingerprint only has to be stable, not exact. *)

(* Write [n >= 0] as exactly [len] decimal digits at [pos]. *)
let put_digits b pos n len =
  let n = ref n in
  for i = pos + len - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  pos + len

let rec digit_count n = if n < 10 then 1 else 1 + digit_count (n / 10)

(* Write the "%.5f" text of q·1e-5 at [pos] and return its end; at most
   16 bytes on the fast path, the buffer grows for a [Printf] text.
   Inlined, so [q] is never boxed. *)
let[@inline] put_quantized b pos q =
  if Float.abs q < 1e14 then begin
    let n = Float.to_int q in
    let pos = if n < 0 then (Bytes.set !b pos '-'; pos + 1) else pos in
    let a = abs n in
    let pos = put_digits !b pos (a / 100_000) (digit_count (a / 100_000)) in
    Bytes.set !b pos '.';
    put_digits !b (pos + 1) (a mod 100_000) 5
  end
  else begin
    let s = Printf.sprintf "%.5f" (q *. 1e-5) in
    b := Bytes.extend !b 0 (String.length s);
    Bytes.blit_string s 0 !b pos (String.length s);
    pos + String.length s
  end

let fingerprint (u : Mat.t) =
  let data = Mat.data u in
  let head = string_of_int (Mat.rows u) ^ "x" ^ string_of_int (Mat.cols u) in
  let b = ref (Bytes.create (String.length head + (17 * Array.length data))) in
  Bytes.blit_string head 0 !b 0 (String.length head);
  let pos = ref (String.length head) in
  for i = 0 to Array.length data - 1 do
    Bytes.set !b !pos (if i land 1 = 0 then '|' else ',');
    pos := put_quantized b (!pos + 1) (Float.round (data.(i) *. 1e5))
  done;
  Digest.subbytes !b 0 !pos

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

let find lib ~key cu =
  locked lib (fun () ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt lib.table key) in
      match List.find_opt (fun e -> matches lib e.unitary cu) bucket with
      | Some e ->
          lib.hits <- lib.hits + 1;
          Some e
      | None ->
          lib.misses <- lib.misses + 1;
          None)

let add lib ~key e =
  locked lib (fun () ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt lib.table key) in
      Hashtbl.replace lib.table key (e :: bucket))

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

type stats = { hits : int; misses : int; entries : int }

let stats lib =
  locked lib (fun () ->
      let entries =
        Hashtbl.fold (fun _ b acc -> acc + List.length b) lib.table 0
      in
      { hits = lib.hits; misses = lib.misses; entries })

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
    ("entries", s.entries);
  ]
