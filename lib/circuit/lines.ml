(* Qubit-line timing: the one model behind circuit depth, the latency
   proxies, pulse schedules and commutation-aware list scheduling.

   An operation occupies every qubit line it acts on for its duration and
   starts when the last of those lines is free.  The module is generic
   over the operation type: callers say which qubits an operation acts on
   and how long it takes (gate levels, 0/1/6 weights, reference gate
   times, pulse durations).  Integer durations are exact as floats. *)

(* Start time of an operation on [qubits]: the latest busy-time of its
   lines. *)
let ready line qubits =
  List.fold_left (fun acc q -> Float.max acc line.(q)) 0.0 qubits

(* Place [ops] ASAP in sequence order on [n] lines: the start time of each
   operation, in sequence order, and the makespan (the critical path over
   qubit lines). *)
let asap ~n ~qubits ~duration ops =
  let line = Array.make n 0.0 in
  let starts =
    List.map
      (fun op ->
        let qs = qubits op in
        let start = ready line qs in
        let finish = start +. duration op in
        List.iter (fun q -> line.(q) <- finish) qs;
        start)
      ops
  in
  (starts, Array.fold_left Float.max 0.0 line)

(* For each operation, the earlier ones it must follow, latest first:
   those sharing a qubit with it that [commute] does not let it pass. *)
let dependencies ~qubits ~commute (ops : 'a array) =
  let len = Array.length ops in
  let qs = Array.map qubits ops in
  let deps = Array.make len [] in
  for i = 0 to len - 1 do
    for j = i + 1 to len - 1 do
      if
        List.exists (fun q -> List.mem q qs.(j)) qs.(i)
        && not (commute ops.(i) ops.(j))
      then deps.(j) <- i :: deps.(j)
    done
  done;
  deps

(* Greedy list scheduling: repeatedly emit the ready operation (every
   dependency emitted) with the earliest start on the lines, ties to the
   lowest index.  The output differs from [ops] only by swaps of commuting
   or disjoint operations.  A dependency shares a line with its dependent,
   and line times never decrease, so the line start already covers every
   dependency's finish. *)
let list_order ~n ~qubits ~duration ~commute ops =
  let arr = Array.of_list ops in
  let len = Array.length arr in
  let deps = dependencies ~qubits ~commute arr in
  let qs = Array.map qubits arr in
  let emitted = Array.make len false in
  let line = Array.make n 0.0 in
  let order = ref [] in
  for _ = 1 to len do
    let best = ref (-1) and best_start = ref infinity in
    for i = 0 to len - 1 do
      if (not emitted.(i)) && List.for_all (fun d -> emitted.(d)) deps.(i)
      then begin
        let start = ready line qs.(i) in
        if start < !best_start then begin
          best_start := start;
          best := i
        end
      end
    done;
    let i = !best in
    emitted.(i) <- true;
    let finish = !best_start +. duration arr.(i) in
    List.iter (fun q -> line.(q) <- finish) qs.(i);
    order := arr.(i) :: !order
  done;
  List.rev !order
