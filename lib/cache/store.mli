(** Persistent pulse store: the crash-safe on-disk half of the pulse library.

    A store maps the quantized, global-phase-canonical
    {!Epoc_pulse.Library.key} of a unitary under a hardware context to
    previously synthesized pulses, so a second [epoc] invocation reuses
    the first one's GRAPE results (exact hits) or starts GRAPE from a
    similar cached pulse (near hits).  Every record carries the reuse
    context of its entry: the [Hardware.context] of the model its pulse
    was solved on ([""] for the default chain, whose keys are the bare
    fingerprints), prefixed with ["estimate;"] for an estimate-mode
    price.  Queries answer only within one context: a device block's
    pulse never answers a probe on another model, and an estimate never
    answers a GRAPE probe or the reverse.

    On-disk format, under the store directory:

    - [pulses.jsonl] — a versioned JSON header line followed by one JSON
      record per line.  Loading skips any unparsable line with a warning
      (a torn trailing write can only damage one record) and a header
      mismatch — foreign format, different [schema_version], different
      global-phase convention — makes the store start empty rather than
      mis-read the records (a schema-1 file, written before records
      carried a context, or a schema-2 file, whose estimate records
      share the GRAPE records' contexts, is discarded once and
      refills).
    - [lock] — advisory lock file ([Unix.lockf]) serializing flushes
      between concurrent [epoc] processes.

    Flushes merge pending records with whatever other writers appended
    since the store was opened, write the merged file to a temp file in
    the same directory and atomically [Unix.rename] it into place.

    The JSONL machinery itself lives in {!Persistent.Make}; this module
    is its pulse instance (the other is {!Synth_store}). *)

open Epoc_linalg
open Epoc_pulse

(** Version of the on-disk record format, written into the header line.
    Bump when the record shape changes incompatibly. *)
val schema_version : int

(** [Logs] source for cache messages ("epoc.cache"). *)
val log_src : Logs.src

type entry = {
  unitary : Mat.t;  (** canonical-phase representative *)
  duration : float;  (** ns *)
  fidelity : float;
  pulse : Epoc_qoc.Grape.pulse option;
      (** control amplitudes, for warm starts *)
  context : string;
      (** reuse context: the [Hardware.context] the pulse was solved on,
          ["estimate;"]-prefixed for an estimate-mode price *)
}

type t

(** [open_dir dir] creates [dir] if needed and loads every valid record
    from it.  [match_global_phase] (default [true]) selects the matching
    convention and must agree with the library the store backs; a store
    written under the other convention is ignored (and rewritten on the
    next flush). *)
val open_dir : ?match_global_phase:bool -> string -> t

(** Exact lookup: the stored entry under [context] (default [""])
    whose unitary matches [u] (up to global phase when the store matches
    phases), if any. *)
val find : ?context:string -> t -> Mat.t -> entry option

(** Closest stored pulse of the same dimension under [context] (default
    [""]) and the global-phase-invariant Hilbert-Schmidt distance, for
    seeding GRAPE.  Only entries carrying control amplitudes qualify.
    [max_distance] (default 0.15) bounds how dissimilar a warm start
    may be. *)
val nearest :
  ?context:string ->
  ?max_distance:float ->
  t ->
  Mat.t ->
  (entry * float) option

(** Queue a pulse solved under [context] (default [""]) for persistence
    (no-op if an equal unitary is already stored under that context).
    Thread-safe; nothing touches the disk until {!flush}. *)
val record :
  ?context:string ->
  t ->
  Mat.t ->
  duration:float ->
  fidelity:float ->
  ?pulse:Epoc_qoc.Grape.pulse ->
  unit ->
  unit

(** Queue every library entry the store does not already hold, under
    the entry's context.  Called at pipeline end, after candidate forks
    were absorbed, so one {!flush} persists the whole run's new pulses.
    When library and store share the phase convention, entries are
    recorded as-is (they are already canonical), so the warm run's
    probes compute exactly the stored keys. *)
val absorb_library : t -> Library.t -> unit

(** Persist pending records under the in-process and on-disk locks,
    merging with concurrent writers' appends.  No-op when nothing is
    pending. *)
val flush : t -> unit

(** Number of entries currently held in memory (loaded + recorded). *)
val entry_count : t -> int

(** Number of records queued but not yet flushed. *)
val pending_count : t -> int

(** Number of records read from disk when the store was opened. *)
val loaded_count : t -> int

(** Number of unreadable lines skipped when the store was opened. *)
val skipped_count : t -> int

(** Number of distinct records on disk after the last {!flush} (or after
    {!open_dir}, before any flush).  Unlike {!entry_count} this never
    counts semantically equal records twice — e.g. after recovering a
    torn write whose record a concurrent writer also re-solved — so it
    is the value the pipeline reports as [cache.entries]. *)
val merged_count : t -> int
