(* Transmon-style hardware model for quantum optimal control.

   Rotating-frame model on the qubit subspace:
     H(t) = H0 + sum_j u_j(t) H_j
   with an always-on ZZ coupling drift on coupled pairs and amplitude-
   limited X/Y drives per qubit:
     H0  = sum_(a,b) (J_ab/2) * Z_a Z_b
     H_j in { X_q / 2, Y_q / 2 }  (one pair per qubit)
   Units: time in ns, energies in rad/ns.  Default parameters give the
   usual scales: a pi rotation at full drive takes ~10 ns, a CZ-equivalent
   interaction ~ pi/J = 50 ns, matching superconducting literature values
   (Krantz et al., "A quantum engineer's guide to superconducting qubits").

   Coupling is per pair: [couplings] carries (a, b, J_ab), and
   [coupling_strength] keeps the model's representative J (the minimum
   over pairs — the slowest entangler prices the conservative reference
   durations).  The historical uniform-J chain built by [make] stays
   bit-identical: same pair order, same per-pair scalar.

   Models are built two ways.  [make] is the default chain used when no
   device is configured.  [of_device] instantiates the 2^k model of one
   partition block from a device's coupling subgraph — the full device
   never becomes a Hamiltonian (a 12-qubit drift would already be
   4096x4096); only block-sized models exist.  Blocks whose induced
   subgraph is disconnected (a two-qubit gate between non-adjacent
   device qubits — there is no router) get virtual couplings along
   shortest parent-graph paths with J_eff = J_path / distance, the
   pulse-level routing abstraction.

   The drift and control Hamiltonians are built eagerly and stored on
   the record: GRAPE reads them once per [optimize_r] call, and the
   pipeline memoizes block models in [Memo], so the Pauli embeddings
   are not rebuilt for every group of every candidate. *)

open Epoc_linalg
open Epoc_circuit
module Device = Epoc_device.Device

type control = { label : string; matrix : Mat.t }

type t = {
  n : int;
  dt : float; (* GRAPE slot duration, ns *)
  drive_limit : float; (* max |u_j|, rad/ns *)
  couplings : (int * int * float) list; (* (a, b, J_ab) in rad/ns *)
  coupling_strength : float; (* representative J (min over pairs), rad/ns *)
  t_coherence : float; (* effective coherence time, ns (for ESP) *)
  context : string; (* cache-key tag: "" for the default chain model *)
  drift_h : Mat.t; (* precomputed H0 (2^n x 2^n) *)
  controls_h : control list; (* precomputed H_j *)
}

let two_pi = 2.0 *. Float.pi

(* --- Pauli embeddings --------------------------------------------------- *)

let embed_single n q (p : Mat.t) =
  let rec build i acc =
    if i >= n then acc
    else build (i + 1) (Mat.kron acc (if i = q then p else Mat.identity 2))
  in
  let first = if q = 0 then p else Mat.identity 2 in
  build 1 first

let pauli_x = Gate.matrix Gate.X
let pauli_y = Gate.matrix Gate.Y
let pauli_z = Gate.matrix Gate.Z

let zz n a b =
  let rec build i acc =
    if i >= n then acc
    else
      build (i + 1)
        (Mat.kron acc (if i = a || i = b then pauli_z else Mat.identity 2))
  in
  let first = if a = 0 || b = 0 then pauli_z else Mat.identity 2 in
  build 1 first

(* ZZ drift from per-pair strengths.  Zero-strength terms are skipped
   entirely (adding a zero-scaled matrix could still flip signed zeros
   and would cost a 2^n x 2^n add for nothing). *)
let build_drift ~n ~couplings =
  let dim = 1 lsl n in
  List.fold_left
    (fun acc (a, b, j) ->
      if j = 0.0 then acc
      else Mat.add acc (Mat.scale_re (j /. 2.0) (zz n a b)))
    (Mat.zeros dim dim) couplings

(* Control Hamiltonians: X/2 and Y/2 on each qubit. *)
let build_controls ~n =
  List.concat_map
    (fun q ->
      [
        { label = Fmt.str "x%d" q; matrix = Mat.scale_re 0.5 (embed_single n q pauli_x) };
        { label = Fmt.str "y%d" q; matrix = Mat.scale_re 0.5 (embed_single n q pauli_y) };
      ])
    (List.init n Fun.id)

let min_strength ~default couplings =
  List.fold_left
    (fun acc (_, _, j) -> if j > 0.0 then Float.min acc j else acc)
    default couplings

(* Default: linear chain, uniform 0.005 GHz coupling, 0.05 GHz drive. *)
let make ?(dt = 0.5) ?(t_coherence = 100_000.0) n =
  if n < 1 then invalid_arg "Hardware.make: need at least one qubit";
  let coupling_strength = two_pi *. 0.005 in
  let couplings =
    List.init (max 0 (n - 1)) (fun i -> (i, i + 1, coupling_strength))
  in
  {
    n;
    dt;
    drive_limit = two_pi *. 0.05;
    couplings;
    coupling_strength;
    t_coherence;
    context = "";
    drift_h = build_drift ~n ~couplings;
    controls_h = build_controls ~n;
  }

(* Drift Hamiltonian (2^n x 2^n). *)
let drift hw = hw.drift_h

let controls hw = hw.controls_h

let pair_strength hw a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  List.find_map
    (fun (x, y, j) ->
      let x, y = if x <= y then (x, y) else (y, x) in
      if x = a && y = b then Some j else None)
    hw.couplings

(* --- device blocks ------------------------------------------------------ *)

(* Connected components of an edge list over local indices 0..k-1,
   as a component-id array. *)
let components ~k edges =
  let comp = Array.init k Fun.id in
  let rec root i = if comp.(i) = i then i else root comp.(i) in
  List.iter
    (fun (a, b, _) ->
      let ra = root a and rb = root b in
      if ra <> rb then comp.(max ra rb) <- min ra rb)
    edges;
  Array.map root comp

let string_of_qubits qs = String.concat "," (List.map string_of_int qs)

(* A device's identity for pulse reuse: its name and a short digest of
   its canonical serialization, which covers every calibration value the
   block models are built from.  Two devices sharing a name (an edited
   device file, or a file shadowing a builtin) get distinct tags. *)
let device_tag (d : Device.t) =
  Fmt.str "%s#%s" d.Device.name
    (String.sub (Digest.to_hex (Digest.string (Device.to_string d))) 0 8)

(* The 2^k model of one partition block on device [d].  [qubits] are
   global device indices in block order (ascending for partition
   blocks); local qubit i of the model is [List.nth qubits i].

   Coupling is the induced subgraph of the device.  When the induced
   subgraph is disconnected, each disconnected pair of components is
   bridged by a virtual coupling between its closest global pair
   (smallest (distance, a, b), deterministically), with
   J_eff = (min edge strength along one shortest path) / distance —
   interaction must be routed across the intervening qubits, so the
   effective entangling rate degrades with distance.

   @raise Invalid_argument when a block qubit pair has no connecting
   path on the device at all. *)
let of_device (d : Device.t) ~qubits =
  let k = List.length qubits in
  if k < 1 then invalid_arg "Hardware.of_device: empty block";
  let qarr = Array.of_list qubits in
  Array.iter
    (fun q ->
      if q < 0 || q >= d.Device.n then
        invalid_arg
          (Fmt.str "Hardware.of_device: qubit %d out of range for %s" q
             d.Device.name))
    qarr;
  let local g =
    let rec go i = if qarr.(i) = g then i else go (i + 1) in
    go 0
  in
  let induced =
    List.filter_map
      (fun e ->
        if
          Array.exists (( = ) e.Device.e_a) qarr
          && Array.exists (( = ) e.Device.e_b) qarr
        then
          Some
            ( local e.Device.e_a,
              local e.Device.e_b,
              two_pi *. e.Device.e_ghz )
        else None)
      d.Device.edges
  in
  (* Bridge induced components until connected. *)
  let rec bridge edges =
    let comp = components ~k edges in
    if Array.for_all (fun c -> c = comp.(0)) comp then edges
    else
      let best = ref None in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          if comp.(i) <> comp.(j) then
            match Device.distance d qarr.(i) qarr.(j) with
            | None -> ()
            | Some dist ->
                let cand = (dist, qarr.(i), qarr.(j), i, j) in
                if
                  match !best with
                  | None -> true
                  | Some (bd, ba, bb, _, _) ->
                      (dist, qarr.(i), qarr.(j)) < (bd, ba, bb)
                then best := Some cand
        done
      done;
      match !best with
      | None ->
          invalid_arg
            (Fmt.str "Hardware.of_device: block [%s] is disconnected on %s"
               (string_of_qubits qubits) d.Device.name)
      | Some (dist, ga, gb, la, lb) ->
          let path = Option.get (Device.shortest_path d ga gb) in
          let rec min_edge acc = function
            | a :: (b :: _ as rest) ->
                let g = Option.get (Device.strength_ghz d a b) in
                min_edge (Float.min acc g) rest
            | _ -> acc
          in
          let j_eff =
            two_pi *. min_edge infinity path /. float_of_int dist
          in
          bridge (edges @ [ (la, lb, j_eff) ])
  in
  let couplings = bridge induced in
  let crosstalk =
    List.filter_map
      (fun e ->
        if
          e.Device.e_ghz > 0.0
          && Array.exists (( = ) e.Device.e_a) qarr
          && Array.exists (( = ) e.Device.e_b) qarr
        then
          Some
            ( local e.Device.e_a,
              local e.Device.e_b,
              two_pi *. e.Device.e_ghz )
        else None)
      d.Device.crosstalk
  in
  let device_floor =
    min_strength ~default:(two_pi *. 0.005)
      (List.map
         (fun e -> (e.Device.e_a, e.Device.e_b, two_pi *. e.Device.e_ghz))
         d.Device.edges)
  in
  {
    n = k;
    dt = d.Device.dt;
    drive_limit = two_pi *. d.Device.drive_ghz;
    couplings;
    coupling_strength = min_strength ~default:device_floor couplings;
    t_coherence = d.Device.t_coherence;
    context = Fmt.str "%s[%s]" (device_tag d) (string_of_qubits qubits);
    (* crosstalk ZZ joins the drift: always-on parasitic terms the
       optimizer must steer around, exactly like the couplings *)
    drift_h = build_drift ~n:k ~couplings:(couplings @ crosstalk);
    controls_h = build_controls ~n:k;
  }

(* Calibrated reference durations (ns), used by the latency estimator and
   the gate-based baseline. *)
let single_qubit_gate_time hw = Float.pi /. hw.drive_limit
let entangling_gate_time hw =
  (* CZ-equivalent: the ZZ component of CZ is a pi/4 rotation generated by
     the (J/2) ZZ drift, i.e. t = pi/(2J), plus local dressing; GRAPE
     duration searches on the default model land within ~10% of this *)
  (Float.pi /. (2.0 *. hw.coupling_strength)) +. single_qubit_gate_time hw

(* --- model memo --------------------------------------------------------- *)

(* Explicit memo of block models.  Candidates and pipeline runs on the
   same hardware reuse one model instead of rebuilding the Pauli
   embeddings per candidate.  The memo is a first-class value owned by
   whoever scopes the sharing — the pipeline's [Epoc.Engine] holds one
   per engine, so compile requests multiplexed onto one engine share
   hot models while two engines in one process stay fully isolated
   (there is deliberately no process-wide instance).  Models are
   immutable after construction, so sharing them across domains is
   safe; the mutex only guards the table.

   Device blocks are keyed by the whole device value (structural
   equality, so by every calibration value, like [device_tag]) and the
   block's global qubits: two devices sharing a name never share a
   model.  Default blocks are keyed by (dt, t_coherence) and their local
   qubits 0..k-1: the default model re-chains a block's local qubits,
   whatever its global ones. *)
module Memo = struct
  type memo = {
    models : (Device.t option * float * float * int list, t) Hashtbl.t;
    lock : Mutex.t;
  }

  let create () = { models = Hashtbl.create 8; lock = Mutex.create () }

  let get memo ?device ?(dt = 0.5) ?(t_coherence = 100_000.0) qubits =
    let key =
      match device with
      | Some (d : Device.t) ->
          (device, d.Device.dt, d.Device.t_coherence, qubits)
      | None -> (None, dt, t_coherence, List.init (List.length qubits) Fun.id)
    in
    Mutex.lock memo.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock memo.lock)
      (fun () ->
        match Hashtbl.find_opt memo.models key with
        | Some hw -> hw
        | None ->
            let hw =
              match device with
              | Some d -> of_device d ~qubits
              | None -> make ~dt ~t_coherence (List.length qubits)
            in
            Hashtbl.add memo.models key hw;
            hw)
end
