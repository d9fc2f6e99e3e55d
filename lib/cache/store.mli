(** Persistent pulse store: the crash-safe on-disk half of the pulse library.

    A store holds {!Epoc_pulse.Library.entry} values under the
    library's own bucket keys ({!Epoc_pulse.Library.key} of the
    canonical unitary under its reuse context), so a second [epoc]
    invocation reuses the first one's GRAPE results (exact hits) or
    starts GRAPE from a similar cached pulse (near hits).  It records
    what each run solved, not entries the run found elsewhere.  Callers hand
    over the key they already computed for a pulse job; no store call
    canonicalizes or fingerprints, and a hit is the stored entry itself,
    ready for {!Epoc_pulse.Library.add}.  Every record carries the reuse
    context of its entry: the [Hardware.context] of the model its pulse
    was solved on ([""] for the default chain, whose keys are the bare
    fingerprints), prefixed with ["estimate;"] for an estimate-mode
    price.  Queries answer only within one context: a device block's
    pulse never answers a probe on another model, and an estimate never
    answers a GRAPE probe or the reverse.

    The store has no phase convention of its own: every record sits
    under the fingerprint of the matrix it holds, so a probe meets only
    records that quantize like its own matrix — its phase class for a
    phase-invariant probe, and for a phase-sensitive probe (AccQOC/PAQOC
    configs) its phase too — and the session library's
    {!Epoc_pulse.Library.matches} decides within the bucket.

    On-disk format, under the store directory:

    - [pulses.jsonl] — a versioned JSON header line followed by one JSON
      record per line.  Loading skips any unparsable line with a warning
      (a torn trailing write can only damage one record) and a header
      mismatch — foreign format or different [schema_version] — makes
      the store start empty rather than mis-read the records (a schema-1
      file, written before records carried a context, or a schema-2
      file, whose estimate records share the GRAPE records' contexts, is
      discarded once and refills).  The header's [match_global_phase]
      field, written by older builds, is ignored.
    - [lock] — advisory lock file ([Unix.lockf]) serializing flushes
      between concurrent [epoc] processes.

    Flushes append this run's new records, after reading only what
    other writers appended since this handle last read or wrote the
    file, so a flush costs what it adds, not the store's size.

    The JSONL machinery itself lives in {!Persistent.Make}; this module
    is its pulse instance (the other is {!Synth_store}). *)

open Epoc_linalg
open Epoc_pulse

(** Version of the on-disk record format, written into the header line.
    Bump when the record shape changes incompatibly. *)
val schema_version : int

(** [Logs] source for cache messages ("epoc.cache"). *)
val log_src : Logs.src

type t

(** [open_dir dir] creates [dir] if needed and loads every valid record
    from it. *)
val open_dir : string -> t

(** [find t ~key ~matches cu] is the stored entry in bucket [key] whose
    unitary [matches] the probe's canonical form [cu], if any: [key]
    and [cu] are the pulse job's key and canonical form, [matches] the
    session library's {!Epoc_pulse.Library.matches}. *)
val find :
  t ->
  key:Digest.t ->
  matches:(Mat.t -> Mat.t -> bool) ->
  Mat.t ->
  Library.entry option

(** Closest stored pulse of the same dimension under [context] (default
    [""]) and the global-phase-invariant Hilbert-Schmidt distance to
    the probe's canonical form, for seeding GRAPE.  Only entries
    carrying control amplitudes qualify.  [max_distance] (default 0.15)
    bounds how dissimilar a warm start may be. *)
val nearest :
  ?context:string ->
  ?max_distance:float ->
  t ->
  Mat.t ->
  (Library.entry * float) option

(** [record t ~key e] queues [e] for persistence under its library
    bucket key [key = Library.key ~context:e.context e.unitary] (no-op
    if an entry equal up to global phase is already held in that
    bucket).  The pipeline records each pulse a run solved at pipeline
    end.  Thread-safe; nothing touches the disk until {!flush}. *)
val record : t -> key:Digest.t -> Library.entry -> unit

(** Append pending records under the in-process and on-disk locks,
    minus those equal to records concurrent writers appended since this
    handle last read or wrote the file ({!Persistent.Make.flush}).
    No-op when nothing is pending. *)
val flush : t -> unit

(** Number of records queued but not yet flushed. *)
val pending_count : t -> int

(** Number of records read from disk when the store was opened. *)
val loaded_count : t -> int

(** Number of unreadable lines skipped when the store was opened. *)
val skipped_count : t -> int

(** Number of distinct records on disk after the last {!flush} (or after
    {!open_dir}, before any flush).  This never counts semantically
    equal records twice — e.g. after recovering a
    torn write whose record a concurrent writer also re-solved — so it
    is the value the pipeline reports as [cache.entries]. *)
val merged_count : t -> int
