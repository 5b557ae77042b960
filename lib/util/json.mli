(** Minimal JSON values: emission for machine-readable reports and a
    small recursive-descent parser used by the test suite to check that
    emitted reports are well-formed.  No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact serialisation with full string escaping.  Floats use the
    shortest decimal form that round-trips exactly (integral values
    keep a [.0] suffix so they stay floats on re-parse); nan/inf have
    no JSON literal and degrade to [null]. *)
val to_string : t -> string

(** Parse a complete JSON document; [Error msg] on malformed input or
    trailing garbage, with the failure offset and line/column in the
    message.  Numbers with a fraction or exponent parse as [Float],
    others as [Int]. *)
val parse : string -> (t, string) result

(** Object field lookup ([None] on non-objects too). *)
val member : string -> t -> t option

(** Typed field lookups: [None] when the field is absent or has another
    type; [member_float] also reads an integer. *)
val member_str : string -> t -> string option
val member_int : string -> t -> int option
val member_float : string -> t -> float option

(** {1 Crash-only tapes}

    A tape is a header line then one JSON object per line, every line
    flushed as it is appended, so an interrupted writer can tear only
    its final line. *)

(** The header line: [{"schema": schema, "meta": {meta...}}]. *)
val tape_header : schema:string -> meta:(string * t) list -> t

(** [Some meta] when [h] is a [schema] header, [None] otherwise. *)
val tape_meta : schema:string -> t -> (string * t) list option

(** The objects of a JSONL text with their 1-based line numbers; blank
    lines are skipped but counted.  An unparsable {e final} line is
    dropped (the torn write a kill leaves); an unparsable or non-object
    line anywhere else is [Error "line N: ..."]. *)
val parse_jsonl : string -> ((int * t) list, string) result

(** [committed ~commits records] rolls back a tape's uncommitted tail:
    the records up to and including the last one [commits] accepts
    ([[]] when none does).  Each schema owner names its commit records
    and validates the whole tape before rolling back. *)
val committed : commits:('a -> bool) -> 'a list -> 'a list
