(* Synthesis facade used by the EPOC pipeline.

   [vug_form] rewrites any circuit into VUG+CNOT form directly (single
   qubit runs fused into U3 gates, entangling gates lowered to CX); it is
   the fallback when the search does not converge, the baseline the
   synthesized candidate must beat, and the answer outright when a CNOT
   lower bound proves that no search result could beat it. *)

open Epoc_linalg
open Epoc_circuit

type source = Synthesized | Fallback

type block_result = {
  circuit : Circuit.t; (* VUG + CNOT form, equivalent to the input *)
  source : source;
  distance : float; (* instantiation distance (0 for fallback) *)
  expansions : int;
  prunes : int; (* QSearch nodes dropped at the CNOT cap *)
  open_max : int; (* QSearch open-set high-water mark (0 = no search) *)
  failure : string option;
      (* why the search fell back when it did so abnormally (deadline,
         injected fault); [None] for a clean search, a width cutoff or a
         skipped search *)
}

(* Lower every entangling gate to CX and fuse single-qubit runs. *)
let vug_form (c : Circuit.t) =
  let lowered = Lower.to_zx_basis c in
  let cx_only =
    Circuit.of_ops (Circuit.n_qubits lowered)
      (List.concat_map
         (fun (op : Circuit.op) ->
           match (op.Circuit.gate, op.Circuit.qubits) with
           | Gate.CZ, [ a; b ] ->
               [
                 { Circuit.gate = Gate.H; qubits = [ b ] };
                 { Circuit.gate = Gate.CX; qubits = [ a; b ] };
                 { Circuit.gate = Gate.H; qubits = [ b ] };
               ]
           | _ -> [ op ])
         (Circuit.ops lowered))
  in
  Peephole.optimize ~aggressive:true cx_only

let cx_count c = Circuit.count_gate "cx" c

(* --- CNOT lower bound ---------------------------------------------------- *)

(* Y⊗Y: the real anti-diagonal (-1, 1, 1, -1). *)
let y_y =
  Mat.init 4 4 (fun i j ->
      if i + j <> 3 then Cx.zero
      else Cx.of_float (if i = 0 || i = 3 then -1.0 else 1.0))

(* Fewest CNOTs, single-qubit gates free, of any circuit within
   Hilbert-Schmidt distance 1e-8 (QSearch's default threshold) of the
   two-qubit unitary [u].  Shende, Bullock and Markov (PRA 69, 062321,
   2004): with [u] scaled to determinant 1, gamma = u (Y⊗Y) uᵀ (Y⊗Y),
   t = tr gamma and e2 the x² coefficient of gamma's characteristic
   polynomial,
   - 0 CNOTs iff gamma = ±I, i.e. t = ±4;
   - 1 CNOT iff that polynomial is (x² + 1)², i.e. t = 0 and e2 = 2;
   - at most 2 iff t is real;
   - 3 always suffice.
   The scaling is fixed up to a power of i, which only flips gamma's sign;
   every test ignores it.

   A class is ruled out only when [u] misses its test by at least
   [margin] = 1e-2.  Were a class-k circuit W within the threshold, a
   phase would put ‖u − W‖_F² = 8·hs_distance below 8e-8, so ‖u − W‖_F
   < 2.9e-4, and rescaling both to determinant 1 at most doubles that:
   ‖E‖_F < 5.7e-4 for the difference E of the scaled pair.  Then
   ‖Δgamma‖_F ≤ 2‖E‖_F + ‖E‖_F² < 1.2e-3 and |Δt| ≤ 4‖E‖_F + ‖E‖_F²
   < 2.3e-3; with e2 = (t² − tr gamma²)/2 and t = 0 on class 1,
   |Δe2| ≤ (|Δt|² + 4‖Δgamma‖_F + ‖Δgamma‖_F²)/2 < 2.3e-3.  [u] would
   pass W's test with more than 4× headroom. *)
let cnot_lower_bound u =
  let margin = 1e-2 in
  let v = Mat.scale (Cx.cis (-.Cx.arg (Poly.characteristic u).(0) /. 4.0)) u in
  let gamma = Mat.mul (Mat.mul v y_y) (Mat.mul (Mat.transpose v) y_y) in
  let chi = Poly.characteristic gamma in
  let t = Cx.neg chi.(3) and e2 = chi.(2) in
  let near z x = Cx.norm (Cx.sub z (Cx.of_float x)) < margin in
  if near t 4.0 || near t (-4.0) then 0
  else if near t 0.0 && near e2 2.0 then 1
  else if Float.abs (Cx.im t) < margin then 2
  else 3

(* Whether no search result could pass [synthesize_block]'s acceptance
   test against the direct form [fallback] of a block with unitary
   [target].  A template puts a U3 on
   each qubit, then a U3 on both qubits of each CNOT, so on one or two
   qubits a result with m CNOTs has depth 1 + 2m.  Once the direct form's
   depth is at most 1 + 2·(its CX count), a result must have fewer CNOTs
   to win: impossible on one qubit, and on two whenever the lower bound
   reaches the direct form's count. *)
let search_cannot_win ~options ~fallback target =
  let cf = cx_count fallback in
  Circuit.depth fallback <= 1 + (2 * cf)
  &&
  match Circuit.n_qubits fallback with
  | 1 -> true
  | 2 ->
      options.Qsearch.threshold <= 1e-8 && cnot_lower_bound target >= cf
  | _ -> false

(* Synthesize one partition block (local indices).  The result is always
   equivalent to the input: the synthesized candidate is only accepted when
   its instantiation converged below threshold *and* it improves on the
   direct VUG form (fewer CNOTs, or equal CNOTs and lower depth).  Blocks
   where [search_cannot_win] holds return the direct form without
   searching. *)
let synthesize_block ?(options = Qsearch.default_options)
    ?(max_search_qubits = 2) ?(rng = Random.State.make [| 17 |]) ?budget ?fault
    ?site (block : Circuit.t) =
  let fallback = vug_form block in
  let direct =
    { circuit = fallback; source = Fallback; distance = 0.0; expansions = 0;
      prunes = 0; open_max = 0; failure = None }
  in
  if Circuit.n_qubits block > max_search_qubits then
    (* wider targets are priced out of the numerical search by default
       (generic 3-qubit unitaries need ~14 CNOT layers); the direct VUG
       form is used instead *)
    direct
  else
    let target = Circuit.unitary block in
    if search_cannot_win ~options ~fallback target then direct
    else
      match Qsearch.synthesize_r ~options ~rng ?budget ?fault ?site target with
      | Ok outcome ->
          let better =
            cx_count outcome.Qsearch.circuit < cx_count fallback
            || (cx_count outcome.Qsearch.circuit = cx_count fallback
               && Circuit.depth outcome.Qsearch.circuit
                  < Circuit.depth fallback)
          in
          if better then
            {
              circuit = outcome.Qsearch.circuit;
              source = Synthesized;
              distance = outcome.Qsearch.distance;
              expansions = outcome.Qsearch.expansions;
              prunes = outcome.Qsearch.prunes;
              open_max = outcome.Qsearch.open_max;
              failure = None;
            }
          else
            { direct with
              expansions = outcome.Qsearch.expansions;
              prunes = outcome.Qsearch.prunes;
              open_max = outcome.Qsearch.open_max }
      | Error
          (Epoc_error.Synthesis_exhausted { expansions; prunes; open_max; _ })
        ->
          (* budget ran dry: same degradation as before the typed channel
             (direct VUG form), telemetry preserved from the error payload *)
          { direct with expansions; prunes; open_max }
      | Error e ->
          (* deadline or injected fault: fall back to the direct VUG form —
             always available, needs no search — and record why *)
          { direct with failure = Some (Epoc_error.to_string e) }

(* Hilbert-Schmidt verification helper for callers and tests. *)
let verify ~eps (block : Circuit.t) (result : block_result) =
  Mat.hs_distance (Circuit.unitary block) (Circuit.unitary result.circuit) < eps

(* --- stage report ------------------------------------------------------- *)

(* Structured summary of a batch of per-block synthesis runs, for the
   pass pipeline's trace sink (lib/epoc). *)
type stage_report = {
  block_count : int;
  synthesized : int; (* blocks where the search beat the direct form *)
  fallback : int;
  total_expansions : int;
  total_prunes : int;
  max_open : int; (* largest open-set high-water mark over the batch *)
}

let stage_report (results : block_result list) =
  List.fold_left
    (fun r br ->
      {
        block_count = r.block_count + 1;
        synthesized = (r.synthesized + if br.source = Synthesized then 1 else 0);
        fallback = (r.fallback + if br.source = Fallback then 1 else 0);
        total_expansions = r.total_expansions + br.expansions;
        total_prunes = r.total_prunes + br.prunes;
        max_open = max r.max_open br.open_max;
      })
    { block_count = 0; synthesized = 0; fallback = 0; total_expansions = 0;
      total_prunes = 0; max_open = 0 }
    results

let counters (r : stage_report) =
  [
    ("blocks", r.block_count);
    ("synthesized", r.synthesized);
    ("fallback", r.fallback);
    ("expansions", r.total_expansions);
    ("prunes", r.total_prunes);
    ("open_max", r.max_open);
  ]
