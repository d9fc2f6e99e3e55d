(** Pulse library: the unitary -> pulse lookup table of AccQOC/PAQOC/EPOC.

    Keys are canonical fingerprints of unitary matrices.  EPOC's
    refinement over the earlier frameworks is global-phase-aware
    matching: matrices are rotated to a canonical global phase before
    fingerprinting, so [e^{i phi} U] hits the same entry as [U].
    Phase-sensitive matching is kept as an option to reproduce the
    AccQOC/PAQOC behaviour in the ablation benchmark.

    A probe is keyed once: the caller {!canonicalize}s it, takes its
    {!key} and hands both to {!find} and {!add}, which never fingerprint
    (the pipeline does this once per pulse job).  The persistent store
    ([Epoc_cache.Store]) holds these same entries under these same keys,
    so a store hit enters the library as the stored entry and a solved
    pulse is recorded under its job's key, with no second keying.

    All operations are thread-safe.  For coarse-grain parallelism the
    pipeline uses {!fork}/{!absorb}: each candidate works on a private
    copy and the results are merged back in a deterministic order. *)

open Epoc_linalg

type entry = {
  unitary : Mat.t;  (** the {!canonicalize}d unitary its key digests *)
  duration : float;  (** ns *)
  fidelity : float;
  pulse : Epoc_qoc.Grape.pulse option;
  context : string;
      (** the reuse context: the [Hardware.context] of the model the
          pulse was solved on ([""] for the default chain), with
          ["estimate;"] in front for an estimate-mode price *)
}

type t

(** [create ()] makes an empty library.  [match_global_phase] (default
    [true]) selects EPOC's phase-invariant matching; [false] reproduces
    the phase-sensitive AccQOC/PAQOC behaviour. *)
val create : ?match_global_phase:bool -> unit -> t

(** The matching convention this library was created with.  Callers
    sharing one library across requests (the pipeline engine) check it
    against each request's config and fall back to a private library on
    mismatch. *)
val match_global_phase : t -> bool

(** Stable content key of a unitary: the MD5 digest of its entries
    quantized to 5 decimals, as the text

    ["<rows>x<cols>"] then, per entry in row-major order,
    ["|<re>,<im>"], each part [Printf.sprintf "%.5f"] of
    [round(v * 1e5) * 1e-5] with a negative zero printed as
    ["0.00000"].

    Every persisted pulse-store key rests on this exact text, so it
    never changes; it is written without [Printf] except for
    magnitudes of 1e9 and more, nan and inf.  Callers must
    canonicalize the global phase first when they want phase-invariant
    keys. *)
val fingerprint : Mat.t -> Digest.t

(** [u] under the library's matching convention: rotated to the canonical
    global phase when the library matches phases, unchanged otherwise.
    Probes and entries are canonical. *)
val canonicalize : t -> Mat.t -> Mat.t

(** Whether two unitaries are the same pulse under the library's matching
    convention ([Mat.equal_up_to_phase] or [Mat.approx_equal], eps 1e-6).
    Both arguments are expected already {!canonicalize}d. *)
val matches : t -> Mat.t -> Mat.t -> bool

(** Bucket key of an already-{!canonicalize}d unitary under a hardware
    [context] (default [""]): the bare {!fingerprint} for the default
    context, so default-context keys never change, and a digest of
    context and fingerprint otherwise.  The persistent store keeps its
    records under these keys. *)
val key : ?context:string -> Mat.t -> Digest.t

(** [find lib ~key cu] looks up the {!canonicalize}d unitary [cu] in the
    bucket [key], which must be [key ~context cu]: the caller computes
    both once per pulse job, and the lookup fingerprints nothing.
    Counts a hit or a miss.  The [context] (a [Hardware.context], with
    ["estimate;"] in front for an estimate-mode price) scopes the lookup
    to one hardware model and mode: the same unitary priced on
    different coupling graphs yields different pulses, so entries never
    answer across contexts. *)
val find : t -> key:Digest.t -> Mat.t -> entry option

(** [add lib ~key e] inserts [e] under [key = key ~context:e.context
    e.unitary], as {!find} expects: a fresh pulse for a
    {!canonicalize}d probe, or an entry the persistent store returned
    under the same key. *)
val add : t -> key:Digest.t -> entry -> unit

(** Private copy sharing no mutable state with the original; traffic
    counters start at zero so {!absorb} adds them back without double
    counting. *)
val fork : t -> t

(** Merge a fork's traffic counters and new entries back.  Entries whose
    unitary is already matched are dropped, mirroring what a sequential
    run against the shared table would have stored. *)
val absorb : t -> t -> unit

type stats = { hits : int; misses : int; entries : int }

val stats : t -> stats

(** Hits over total lookups; 0.0 when there was no traffic. *)
val hit_rate : t -> float

(** [stats] as labelled counters for the pass pipeline's trace sink. *)
val counters : stats -> (string * int) list
