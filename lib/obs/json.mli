(** Minimal JSON layer for the observability subsystem: a value type, a
    compact/indented printer and a recursive-descent parser.

    The repo deliberately carries no third-party JSON dependency, and
    this is its only JSON writer: every machine-readable artifact
    (trace JSON, Chrome trace events, `epoc report --json`, serve
    responses and the flight recorder, [BENCH_pipeline.json], pulse-IR
    and device files) is built as a {!t} and rendered by {!to_string},
    so the exporters and the tools that consume them share one
    definition of well-formedness. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_int : int -> t

(** Integral doubles print without an exponent or trailing ["."], other
    values with enough digits to round-trip; non-finite numbers print
    as [null] (JSON has no NaN/inf). *)
val number_to_string : float -> string

(** Compact by default; [~indent:true] pretty-prints with 2-space
    indentation.  Both forms re-parse to the same value. *)
val to_string : ?indent:bool -> t -> string

(** Parse a complete JSON document.  Errors carry a description and the
    byte offset where parsing failed, e.g. ["expected ':' at offset
    12"]. *)
val parse : string -> (t, string) result

(** {!parse}, raising [Invalid_argument] on malformed input. *)
val parse_exn : string -> t

(** {1 Accessors} — [None] on kind mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_num : t -> float option
val to_str : t -> string option

(** Nearest integer of a [Num]. *)
val to_int : t -> int option
