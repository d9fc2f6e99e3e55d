(** Pipeline configuration.

    The record is concrete: callers build variants with functional update
    over {!default} (the CLI, the benchmarks and the tests all do). *)

(** How pulse durations/fidelities are obtained:
    - [Grape]: the real GRAPE duration search per distinct unitary
      (cached in the pulse library, and across runs in the persistent
      store when one is configured).  Reference mode; wall-clock cost
      grows quickly with block width.
    - [Estimate]: the calibrated analytic latency model, for very wide
      sweeps.  Each experiment records which mode produced it. *)
type qoc_mode = Grape | Estimate

type t = {
  use_zx : bool;  (** graph-based depth optimization stage *)
  use_synthesis : bool;  (** VUG-based synthesis of partition blocks *)
  regroup : bool;  (** regroup VUGs before QOC (the paper's key step) *)
  partition : Epoc_partition.Partition.config;
  regroup_partition : Epoc_partition.Partition.config;
  regroup_widths : int list;
      (** additional regroup widths to explore; the schedule with the
          lowest latency wins *)
  commutation_reorder : bool;
      (** commutation-aware gate reordering before partitioning and
          scheduling (baselines disable it) *)
  synthesis : Epoc_synthesis.Qsearch.options;
  qoc_mode : qoc_mode;
  latency : Epoc_qoc.Latency.options;
  match_global_phase : bool;
      (** EPOC's phase-aware pulse library matching *)
  cache_dir : string option;
      (** directory of the persistent pulse store (lib/cache); [None]
          keeps the library purely in-memory, as in the original paper *)
  synth_cache_dir : string option;
      (** directory of the persistent synthesis store
          ({!Epoc_cache.Synth_store}); [None] re-synthesizes every block
          from scratch *)
  similarity_order : bool;
      (** AccQOC-style similarity ordering: chain pending GRAPE solves
          along a greedy nearest-neighbor walk in Hilbert-Schmidt
          distance so each solve warm-starts from the previous result.
          Changes solver trajectories (never correctness), so it is off
          by default to keep the cold path bit-identical. *)
  dt : float;
  t_coherence : float;
  total_deadline : float option;
      (** wall-clock budget for the whole run, seconds ([None] =
          unbounded); checked inside GRAPE iterations and QSearch
          expansions via {!Epoc_budget} *)
  block_deadline : float option;
      (** wall-clock budget per block-level solve attempt, seconds;
          capped by the remaining [total_deadline] *)
  max_retries : int;
      (** how many times a failed block pulse solve is retried (with a
          perturbed restart and widened duration window) before the
          block degrades to per-gate pulse playback *)
  fault : Epoc_fault.spec option;
      (** deterministic fault injection, off by default.  The library
          never reads [EPOC_FAULT] itself; the CLI and the fault tests
          wire the environment through this field. *)
  device : Epoc_device.Device.t option;
      (** target device; [None] is the default model, a uniform chain
          over each block's local qubits.  Read only by the block-model
          lookup ({!Engine.hardware_for_block}) and the partition
          coupling; pulse reuse is scoped by the block model's
          [Hardware.context], so device runs share the library and the
          persistent store with everything else.  Set it through
          {!with_device}, which keeps [dt]/[t_coherence] consistent
          with the device calibration. *)
}

(** Paper defaults with the analytic latency model ([Estimate]). *)
val default : t

(** Select a device: sets [device] and overrides [dt]/[t_coherence]
    from its calibration, so ESP, gate-flow pricing and budget pricing
    agree with the block models built from the device's coupling graph.
    The one entry point for device-aware compilation — the CLI
    ([--device]/[EPOC_DEVICE]), the serve protocol's ["device"] field
    and the bench device sweep all go through it. *)
val with_device : Epoc_device.Device.t -> t -> t

(** [resolve_device registry spec config]: {!with_device} on the device
    a [--device NAME|FILE] spec resolves to in [registry]; [Ok config]
    when [spec] is [None], the registry's message when it does not
    resolve. *)
val resolve_device :
  Epoc_device.Device.Registry.registry ->
  string option ->
  t ->
  (t, string) result

(** Reference EPOC configuration with real GRAPE pulses. *)
val grape : t

(** Setting (1) of the evaluation: QOC directly on the synthesized VUGs,
    without the regrouping step. *)
val no_regroup : t
