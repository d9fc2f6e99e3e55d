(** Transmon-style hardware model for quantum optimal control.

    Rotating-frame model on the qubit subspace:
    [H(t) = H0 + sum_j u_j(t) H_j] with an always-on ZZ coupling drift
    on coupled pairs and amplitude-limited X/Y drives per qubit.
    Units: time in ns, energies in rad/ns.

    Models are built two ways: {!make} is the default model, a uniform
    chain over a block's local qubits, and {!of_device} instantiates
    the 2^k model of one partition block from a
    {!Epoc_device.Device.t}'s coupling subgraph — the full device never
    becomes a Hamiltonian; only block-sized models exist.  {!Memo.get}
    is the one lookup that picks between them.

    The drift and control Hamiltonians are built eagerly and stored on
    the (immutable) record: GRAPE reads them once per optimize call and
    {!Memo} memoizes models per owner (the pipeline engine), so the
    Pauli embeddings are not rebuilt per block. *)

open Epoc_linalg

type control = { label : string; matrix : Mat.t }

type t = {
  n : int;
  dt : float;  (** GRAPE slot duration, ns *)
  drive_limit : float;  (** max |u_j|, rad/ns *)
  couplings : (int * int * float) list;
      (** coupled pairs with their strength [(a, b, J_ab)], rad/ns *)
  coupling_strength : float;
      (** representative J (minimum over pairs — the slowest entangler
          prices conservative reference durations), rad/ns *)
  t_coherence : float;  (** effective coherence time, ns (for ESP) *)
  context : string;
      (** scope of pulse reuse: pulse-library and pulse-store entries
          solved on this model only answer probes under the same tag.
          [""] for the default chain model (so its keys are the bare
          unitary fingerprints), ["<name>#<digest>[q0,q1,...]"] for
          device blocks, where [<digest>] is 8 hex digits of the MD5 of
          the device's canonical serialization, so two calibrations
          sharing a device name never share pulses *)
  drift_h : Mat.t;  (** precomputed H0 (2^n x 2^n) *)
  controls_h : control list;  (** precomputed H_j *)
}

(** The default model for [n] qubits: a linear chain with uniform
    0.005 GHz coupling and 0.05 GHz drive, the usual superconducting
    scales (pi rotation at full drive ~10 ns, CZ-equivalent interaction
    ~pi/J = 50 ns).  Its reference gate times do not depend on [n].

    @raise Invalid_argument when [n < 1]. *)
val make : ?dt:float -> ?t_coherence:float -> int -> t

(** Drift Hamiltonian H0 (2^n x 2^n). *)
val drift : t -> Mat.t

(** Control Hamiltonians H_j (X/2 and Y/2 per qubit). *)
val controls : t -> control list

(** Coupling strength of a pair (rad/ns), order-insensitive; [None]
    when the pair is not coupled. *)
val pair_strength : t -> int -> int -> float option

(** The 2^k model of one partition block on a device.  [qubits] are
    global device indices in block order; local qubit [i] of the model
    is [List.nth qubits i].  Coupling is the induced device subgraph;
    physical parameters (drive, dt, coherence) come from the device,
    and device crosstalk terms inside the block join the drift.  When
    the induced subgraph is disconnected (an unrouted two-qubit gate
    between non-adjacent device qubits), disconnected components are
    bridged by deterministic virtual couplings along shortest
    parent-graph paths with [J_eff = J_path / distance] — the
    pulse-level routing abstraction.

    @raise Invalid_argument on an empty block, an out-of-range qubit,
    or a block pair with no connecting device path at all. *)
val of_device : Epoc_device.Device.t -> qubits:int list -> t

(** Calibrated reference durations (ns) for the latency estimator and
    the gate-based baseline. *)
val single_qubit_gate_time : t -> float

val entangling_gate_time : t -> float

(** Explicit memo of block models.  A memo is a first-class value
    owned by whoever scopes the sharing — the pipeline's engine holds
    one per engine — so there is no process-wide model table.
    Thread-safe: models are immutable and the table is mutex-guarded. *)
module Memo : sig
  type memo

  val create : unit -> memo

  (** The model of one block on global [qubits]: {!of_device} on
      [device]'s coupling subgraph, or without a device {!make} on the
      block width under [dt]/[t_coherence] (the default model re-chains
      the block's local qubits, whatever its global ones).  Memoized
      per (device value, block qubits), compared structurally so a
      recalibrated device under the same name gets its own models,
      resp. per (dt, t_coherence, width). *)
  val get :
    memo ->
    ?device:Epoc_device.Device.t ->
    ?dt:float ->
    ?t_coherence:float ->
    int list ->
    t
end
