(** Operation kinds of the behavioural (CDFG) level.

    The surveyed techniques target data-flow-intensive designs (DSP
    filters, arithmetic pipelines), so the operation set is arithmetic
    and logic; control flow is represented by comparison results consumed
    by the controller and by loop-carried feedback edges. *)

type kind =
  | Add
  | Sub
  | Mul
  | Lt
  | Gt
  | Eq
  | And
  | Or
  | Xor
  | Shl          (** shift left by constant amount (second operand) *)
  | Shr
  | Move         (** unary register-to-register transfer; needs no FU *)

(** Functional-unit classes operations are bound to.  [Move] needs no
    functional unit (pure interconnect), so it has no class. *)
type fu_class = Alu | Multiplier | Comparator | Logic_unit | Shifter

val arity : kind -> int
val fu_class : kind -> fu_class option

(** Identity element of the operation on the given operand position,
    when one exists: fixing that operand to the value makes the op a
    pass-through of the other operand.  E.g. [Add] port 1 → [0],
    [Mul] port 1 → [1], [Sub] port 1 → [0] (but not port 0).  This drives
    deflection-operation insertion (Dey–Potkonjak) and transparency paths
    for hierarchical test. *)
val identity_on : kind -> int -> int option

(** Transparency of the op from input port [i] to the output:
    [`Identity v] — fixing the {e other} operand to [v] passes port [i]
    through unchanged; [`Invertible v] — fixing the other operand to [v]
    makes the output an invertible function of port [i] (value still
    fully observable); [`Opaque] — information is lost. *)
val transparency : kind -> int -> [ `Identity of int | `Invertible of int | `Opaque ]

(** Reference semantics over native ints (used to check gate expansions
    and to execute behaviours).  Shifts and comparisons follow hardware
    conventions on [width]-bit two's-complement words. *)
val eval : width:int -> kind -> int list -> int

val to_string : kind -> string
val fu_class_to_string : fu_class -> string
val all : kind list
