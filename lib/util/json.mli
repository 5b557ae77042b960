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
