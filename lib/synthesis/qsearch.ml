(* VUG-based heuristic circuit synthesis (paper Algorithm 2).

   Best-first search over CNOT skeletons: start from the empty template,
   expand by appending one CNOT at every qubit pair, instantiate each
   successor numerically and order the open set by
   f = distance + cnot_weight * #CNOTs (the A* cost + heuristic of the
   paper).  Succeeds when a node's instantiated distance drops below the
   threshold.  A node-expansion budget bounds the classical cost; on
   exhaustion the caller falls back to the unsynthesized block. *)

open Epoc_linalg

let log_src = Logs.Src.create "epoc.synthesis" ~doc:"QSearch synthesis"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  threshold : float; (* success distance *)
  max_cnots : int;
  max_expansions : int;
  instantiate_options : Instantiate.options;
  cnot_weight : float; (* heuristic weight per CNOT in the priority *)
}

let default_options =
  {
    threshold = 1e-8;
    max_cnots = 8;
    max_expansions = 40;
    instantiate_options = Instantiate.default_options;
    cnot_weight = 1e-3;
  }

type node = {
  template : Template.t;
  result : Instantiate.result;
  f : float;
}

type outcome = {
  circuit : Epoc_circuit.Circuit.t;
  distance : float;
  cnots : int;
  expansions : int;
  converged : bool; (* false = budget exhausted, best effort returned *)
  prunes : int; (* nodes popped but not expanded (CNOT cap reached) *)
  open_max : int; (* open-set high-water mark: search frontier pressure *)
  trajectory : float list; (* best distance after each expansion, oldest first *)
}

(* Simple sorted-list priority queue; open sets stay tiny (tens of nodes). *)
let insert node l =
  let rec go = function
    | [] -> [ node ]
    | x :: _ as l when node.f < x.f -> node :: l
    | x :: rest -> x :: go rest
  in
  go l

let node_of options target rng ?seed template =
  let result =
    Instantiate.instantiate ~options:options.instantiate_options ?seed ~rng
      target template
  in
  {
    template;
    result;
    f = result.distance +. (options.cnot_weight *. float_of_int (Template.cnot_count template));
  }

(* The search loop.  Deadline aborts escape as [Epoc_error.Error];
   an exhausted budget returns the best effort with [converged = false].
   [synthesize_r] maps both to typed errors. *)
let search ~options ~rng ~budget ?fault ~site ~attempt (target : Mat.t) =
  if not (Mat.is_square target) then invalid_arg "Qsearch: non-square target";
  let dim = Mat.rows target in
  let n =
    let rec log2 acc m = if m <= 1 then acc else log2 (acc + 1) (m / 2) in
    log2 0 dim
  in
  if dim <> 1 lsl n then invalid_arg "Qsearch: dimension not a power of two";
  let root = node_of options target rng (Template.root n) in
  let best = ref root in
  let expansions = ref 0 in
  let prunes = ref 0 in
  let open_max = ref 1 in
  let trajectory = ref [ root.result.Instantiate.distance ] in
  let finish node converged =
    {
      circuit = Template.to_circuit node.template node.result.Instantiate.params;
      distance = node.result.Instantiate.distance;
      cnots = Template.cnot_count node.template;
      expansions = !expansions;
      converged;
      prunes = !prunes;
      open_max = !open_max;
      trajectory = List.rev !trajectory;
    }
  in
  (* Injected faults, resolved once per call: pure function of
     (seed, kind, site, attempt), identical for any domain count. *)
  let inject_exhaust =
    Epoc_fault.fires_opt fault ~kind:"qsearch_exhaust" ~site ~attempt
  in
  let inject_deadline =
    Epoc_fault.fires_opt fault ~kind:"deadline" ~site ~attempt
  in
  if inject_deadline then
    Epoc_error.raise_
      (Epoc_error.Deadline_exceeded
         { site; elapsed_s = Epoc_budget.elapsed_s budget });
  if inject_exhaust then
    (* simulate a search that burned its budget without converging *)
    finish root false
  else if n = 1 || root.result.Instantiate.distance < options.threshold then
    (* single-qubit targets are exactly a U3; no search needed *)
    finish root (root.result.Instantiate.distance < options.threshold)
  else begin
    let open_set = ref [ root ] in
    let answer = ref None in
    while !answer = None && !open_set <> [] && !expansions < options.max_expansions do
      match !open_set with
      | [] -> ()
      | current :: rest ->
          open_set := rest;
          incr expansions;
          Epoc_budget.check ~site budget;
          if Template.cnot_count current.template < options.max_cnots then
            List.iter
              (fun succ_template ->
                let seed =
                  Template.extend_params current.result.Instantiate.params
                in
                let node = node_of options target rng ~seed succ_template in
                Log.debug (fun m ->
                    m "expand to %d cnots: distance %.3g"
                      (Template.cnot_count succ_template)
                      node.result.Instantiate.distance);
                if node.result.Instantiate.distance < !best.result.Instantiate.distance
                then best := node;
                if node.result.Instantiate.distance < options.threshold then
                  answer := Some node
                else open_set := insert node !open_set)
              (Template.successors current.template)
          else incr prunes;
          open_max := max !open_max (List.length !open_set);
          trajectory := !best.result.Instantiate.distance :: !trajectory
    done;
    match !answer with
    | Some node -> finish node true
    | None -> finish !best (!best.result.Instantiate.distance < options.threshold)
  end

(* Result-returning entry point.  A search that runs out of its
   expansion budget maps to [Synthesis_exhausted] carrying the
   telemetry; deadline aborts pass through typed. *)
let synthesize_r ?(options = default_options)
    ?(rng = Random.State.make [| 11 |]) ?(budget = Epoc_budget.unlimited)
    ?fault ?(site = "qsearch") ?(attempt = 0) target =
  match
    Epoc_error.wrap (fun () ->
        search ~options ~rng ~budget ?fault ~site ~attempt target)
  with
  | Ok o when o.converged -> Ok o
  | Ok o ->
      Error
        (Epoc_error.Synthesis_exhausted
           {
             site;
             expansions = o.expansions;
             prunes = o.prunes;
             open_max = o.open_max;
           })
  | Error e -> Error e
