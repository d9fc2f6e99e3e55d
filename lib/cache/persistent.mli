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

    Flushes append, so their cost grows with the records they add, not
    with the store.  Every writer appends whole lines under the
    in-process and on-disk locks.  A handle remembers the file's device,
    inode, header line and the offset just past the last whole line it
    has read or written, and a flush parses only the lines past that
    offset: the records other writers appended since.  They join the
    handle's table, a pending record one of them equals in its key
    bucket is dropped, and the rest are appended in one write.  A file
    replaced since (a different inode, shorter than the offset, or
    starting with another header line) is read from its header; a
    missing or empty file, or one whose header this build does not
    speak, is rewritten as the header and the pending records.
    Bytes after the last newline, found under the lock, are a torn write
    and are cut off before appending.  Opening takes no lock: a line
    another process is still appending is read whole by the next flush.
    Deduplication is per key bucket everywhere — at load, at
    {!Make.record} and at flush — so two equal records on different
    keys both survive: a probe computes one of the keys and must find
    its record there.  A flush never rewrites earlier lines: duplicates
    an old file holds stay on disk (loading collapses them) and so do
    unparsable lines (loading skips them).

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
      bucket, both in memory and against records other writers
      appended. *)
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
      nothing is rendered or touches the disk until {!flush}. *)
  val record : t -> key:string -> C.entry -> unit

  (** Append pending records to the record file under the in-process
      and on-disk locks.  The records other writers appended since this
      handle last read or wrote the file are parsed first and join the
      table; a pending record semantically equal to one of them in its
      key bucket is dropped rather than duplicated.  Only the records
      written leave the queue: one {!record}ed by another domain during
      the write waits for the next flush, and a write that raises keeps
      them all queued.  Each record is rendered with [C.to_line] as it
      is appended, so a queue held while the file cannot be written
      holds no text.  No-op when nothing is pending. *)
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
      {!loaded_count} it counts what flushes appended and read, so it is
      the right value for the [cache.entries] gauge. *)
  val merged_count : t -> int
end
