(** Persistent synthesis store: cache of synthesized per-block circuits
    (VUG + CNOT structure plus attempt metadata), keyed by the block's
    local op list.

    QSearch dominates cold compile time; its outcome for a block is a
    pure function of the block's gates and the search options, so a warm
    recompile of the same (or an overlapping) benchmark family can skip
    synthesis entirely by replaying the stored circuit.  Keys are the
    digest of the block's serialized op list and a hit is verified
    against the stored ops before being trusted.  The block unitary is
    not a sound key: a [Fallback] result is {!Synthesis.vug_form} of the
    block's own gates, so two blocks with one unitary and different
    gates have different results.

    Records that carry a [failure] (deadline expiry, injected fault)
    are never stored — an abnormal fallback must be re-attempted, not
    replayed.  Replayed results zero the search counters ([expansions],
    [prunes], [open_max]) so warm-run telemetry shows no QSearch
    activity; the cold run's counts are kept in the record as
    schema-versioned attempt metadata.

    Second instance of {!Persistent.Make} (the first is the pulse
    {!Store}); same on-disk guarantees — versioned header, quarantine,
    torn-write skip, locked append-only flush. *)

open Epoc_circuit
open Epoc_synthesis

(** Version of the on-disk record format, written into the header line. *)
val schema_version : int

type entry = {
  block : Circuit.t;  (** the block's local circuit: key and hit check *)
  circuit : Circuit.t;  (** the synthesized VUG + CNOT circuit *)
  source : Synthesis.source;
  distance : float;  (** instantiation distance of the original attempt *)
  expansions : int;  (** original QSearch expansions (attempt metadata) *)
  prunes : int;  (** original QSearch prunes (attempt metadata) *)
}

type t

(** [open_dir dir] creates [dir] if needed and loads every valid
    record.  Records written under another schema version (v1 keyed by
    block unitary) are quarantined: the store starts empty and the next
    {!flush} rewrites the file. *)
val open_dir : string -> t

(** Exact lookup by the block's local circuit: same qubit count and a
    structurally equal op list (same gates, same parameter bits). *)
val find : t -> Circuit.t -> entry option

(** Queue the synthesis outcome of [block] for persistence.  No-op when
    the result carries a [failure], or when an entry for an equal block
    is already held.  Thread-safe; nothing touches the disk until
    {!flush}. *)
val record : t -> Circuit.t -> Synthesis.block_result -> unit

(** Replay a stored entry as a block result: the stored circuit and
    source, zeroed search counters (no QSearch ran), no failure. *)
val to_block_result : entry -> Synthesis.block_result

(** Append pending records under the in-process and on-disk locks,
    minus those equal to records concurrent writers appended since this
    handle last read or wrote the file ({!Persistent.Make.flush}). *)
val flush : t -> unit

(** Number of records queued but not yet flushed. *)
val pending_count : t -> int

(** Number of records read from disk when the store was opened. *)
val loaded_count : t -> int

(** Number of unreadable lines skipped when the store was opened. *)
val skipped_count : t -> int

(** Number of distinct records on disk after the last {!flush} (see
    {!Store.merged_count}). *)
val merged_count : t -> int
