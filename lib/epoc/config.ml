(* Pipeline configuration.

   [qoc_mode] selects how pulse durations/fidelities are obtained:
   - [Grape]: run the real GRAPE duration search per distinct unitary
     (cached in the pulse library).  This is the reference mode; wall-clock
     cost grows quickly with block width.
   - [Estimate]: use the calibrated analytic latency model.  Used for very
     wide sweeps; each experiment records which mode produced it. *)

type qoc_mode = Grape | Estimate

type t = {
  use_zx : bool; (* graph-based depth optimization stage *)
  use_synthesis : bool; (* VUG-based synthesis of partition blocks *)
  regroup : bool; (* regroup VUGs before QOC (the paper's key step) *)
  partition : Epoc_partition.Partition.config;
  regroup_partition : Epoc_partition.Partition.config;
  (* additional regroup widths to explore; the schedule with the lowest
     latency wins (the paper's "continuously optimizing the circuit
     through equivalent representations") *)
  regroup_widths : int list;
  (* commutation-aware gate reordering before partitioning/scheduling
     (part of EPOC's graph-stage commutation analysis; baselines disable) *)
  commutation_reorder : bool;
  synthesis : Epoc_synthesis.Qsearch.options;
  qoc_mode : qoc_mode;
  latency : Epoc_qoc.Latency.options;
  match_global_phase : bool; (* EPOC's phase-aware pulse library matching *)
  (* directory of the persistent pulse store (lib/cache); [None] keeps the
     library purely in-memory, as in the original paper *)
  cache_dir : string option;
  (* directory of the persistent synthesis store; [None] re-synthesizes
     every block from scratch *)
  synth_cache_dir : string option;
  (* AccQOC-style similarity ordering: chain pending GRAPE solves along a
     greedy nearest-neighbor walk in Hilbert-Schmidt distance so each solve
     warm-starts from the previous result.  Changes solver trajectories, so
     it is off by default to keep the attempt-0 cold path bit-identical. *)
  similarity_order : bool;
  dt : float;
  t_coherence : float;
  (* resilience: wall-clock budgets for the whole run and for each
     block-level solve (seconds; [None] = unbounded), how many times a
     failed block solve is retried with a perturbed restart before the
     block degrades to gate pulses, and the optional fault-injection
     spec (off by default; the library never reads EPOC_FAULT itself —
     the CLI and the fault tests wire the environment through here) *)
  total_deadline : float option;
  block_deadline : float option;
  max_retries : int;
  fault : Epoc_fault.spec option;
  (* target device ([None] = the default chain model).  Set via
     [with_device] so [dt]/[t_coherence] stay consistent with the
     device's calibration; only the block-model lookup
     (Engine.hardware_for_block) and the partition coupling read it *)
  device : Epoc_device.Device.t option;
}

let default =
  {
    use_zx = true;
    use_synthesis = true;
    regroup = true;
    partition = { Epoc_partition.Partition.qubit_limit = 4; op_limit = 48 };
    regroup_partition = { Epoc_partition.Partition.qubit_limit = 3; op_limit = 24 };
    regroup_widths = [ 2; 3; 4 ];
    commutation_reorder = true;
    synthesis =
      {
        Epoc_synthesis.Qsearch.default_options with
        Epoc_synthesis.Qsearch.max_cnots = 4;
        max_expansions = 16;
        instantiate_options =
          {
            Epoc_synthesis.Instantiate.default_options with
            Epoc_synthesis.Instantiate.max_iterations = 250;
            restarts = 1;
          };
      };
    qoc_mode = Estimate;
    latency =
      {
        Epoc_qoc.Latency.default_options with
        Epoc_qoc.Latency.granularity = 4;
        max_slots = 2048;
      };
    match_global_phase = true;
    cache_dir = None;
    synth_cache_dir = None;
    similarity_order = false;
    dt = 0.5;
    t_coherence = 100_000.0;
    total_deadline = None;
    block_deadline = None;
    max_retries = 2;
    fault = None;
    device = None;
  }

(* Select a device: the one entry point for device-aware compilation.
   The device's slot duration and coherence time override the config's —
   every consumer of [dt]/[t_coherence] (ESP, gate-flow pricing, budget
   pricing) then agrees with the block models built from the device's
   coupling graph. *)
let with_device d config =
  {
    config with
    device = Some d;
    dt = d.Epoc_device.Device.dt;
    t_coherence = d.Epoc_device.Device.t_coherence;
  }

(* Resolve an optional --device NAME|FILE spec against [registry] and
   select the device. *)
let resolve_device registry spec config =
  match spec with
  | None -> Ok config
  | Some spec ->
      Result.map
        (fun d -> with_device d config)
        (Epoc_device.Device.Registry.resolve registry spec)

(* Reference EPOC configuration with real GRAPE pulses. *)
let grape = { default with qoc_mode = Grape }

(* Setting (1) of the evaluation: QOC directly on the synthesized VUGs,
   without the regrouping step. *)
let no_regroup = { default with regroup = false }
