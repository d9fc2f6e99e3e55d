(** Generic crash-safe JSONL persistence, the machinery shared by every
    on-disk store in EPOC.

    A store instance maps string fingerprints to buckets of entries and
    persists them as an append-only record file under a directory:

    - [C.records_file] — a versioned JSON header line followed by one
      JSON record per line.  Loading skips any unparsable line with a
      warning (a torn trailing write can only damage one record) and a
      header mismatch — foreign format or different schema version —
      makes the store start empty rather than mis-read foreign records
      (quarantine: the next flush rewrites the file under the current
      header).  The header is [format] and [schema_version]; the
      [match_global_phase] field older headers carry is ignored.
    - [lock] — advisory lock file ([Unix.lockf]) serializing flushes
      between concurrent processes.

    Flushes re-read the record file under the in-process and on-disk
    locks, merge pending records after whatever other writers appended
    (dropping records the codec considers equal to an earlier record of
    the same key bucket), write the merged file to a temp file in the
    same directory and atomically [Unix.rename] it into place — readers
    always see either the old or the new complete file.  Deduplication
    is per key bucket everywhere — at load, at {!Make.record} and at
    flush — so two equal records on different keys both survive: a
    probe computes one of the keys and must find its record there.

    The pulse {!Store} and the synthesis {!Synth_store} are the two
    instances. *)

(** [Logs] source for cache messages ("epoc.cache"). *)
val log_src : Logs.src

(** What a concrete store must supply: the entry type, the on-disk
    identity of the format, and keying, equality and
    (de)serialization.  The store has no matching convention of its
    own: an entry is recorded under the key its caller computed from
    it, so a bucket only holds entries that key alike. *)
module type CODEC = sig
  type entry

  (** Written into the header line; a store written by a different
      format is quarantined, not read. *)
  val format_name : string

  (** Version of the on-disk record shape; bump on incompatible
      change. *)
  val schema_version : int

  (** Record file name under the store directory. *)
  val records_file : string

  (** Bucket key of an entry read from disk: the key it was recorded
      under. *)
  val key : entry -> string

  (** Semantic equality of entries, used to deduplicate within a key
      bucket, both in memory and at flush-merge time. *)
  val equal : entry -> entry -> bool

  (** One JSON line per record; [of_line] must never raise. *)
  val to_line : key:string -> entry -> string

  val of_line : string -> (entry, string) result
end

module Make (C : CODEC) : sig
  type t

  (** [open_dir dir] creates [dir] if needed and loads every valid
      record from it, deduplicating semantically equal records into one
      in-memory entry. *)
  val open_dir : string -> t


  (** First entry in [key]'s bucket satisfying the predicate. *)
  val find : t -> key:string -> (C.entry -> bool) -> C.entry option

  (** Fold over every in-memory entry, in unspecified order. *)
  val fold : t -> init:'a -> (C.entry -> 'a -> 'a) -> 'a

  (** [record t ~key e] queues [e] for persistence under [key], which
      must be [C.key e] (no-op if the codec says an equal entry is
      already held in that bucket).  Callers pass the key they already
      computed for their probe, so recording keys nothing.  Thread-safe;
      nothing touches the disk until {!flush}. *)
  val record : t -> key:string -> C.entry -> unit

  (** Persist pending records under the in-process and on-disk locks,
      merging with concurrent writers' appends; a record semantically
      equal to an earlier one in its key bucket (on disk, or pending
      before it) is dropped rather than duplicated.  Each disk line is
      parsed once.  No-op when nothing is pending. *)
  val flush : t -> unit

  (** Number of records queued but not yet flushed. *)
  val pending_count : t -> int

  (** Number of valid records read from disk when the store was
      opened. *)
  val loaded_count : t -> int

  (** Number of unreadable lines skipped when the store was opened. *)
  val skipped_count : t -> int

  (** Number of distinct records known to be on disk after the last
      {!flush} (or after {!open_dir}, before any flush).  This is the
      durable-store size — it never counts a record twice and unlike
      {!loaded_count} it tracks flush merges, so it is the right value
      for the [cache.entries] gauge. *)
  val merged_count : t -> int
end
