(** Imperative construction of {!Graph.t} values.

    Typical use:
    {[
      let b = Builder.create "diffeq" in
      let x = Builder.input b "x" in
      let dx = Builder.input b "dx" in
      let xl = Builder.binop b Op.Add x dx ~name:"xl" in
      Builder.feedback b ~src:xl ~dst:x;
      Builder.mark_output b xl;
      let g = Builder.finish b in
      ...
    ]} *)

type t

val create : string -> t

(** Declare a primary input variable. *)
val input : t -> string -> int

(** Declare a state variable: not a primary input, holds the value
    carried over from the previous iteration (initially 0/reset). *)
val state : t -> string -> int

(** Declare a compile-time constant. *)
val const : t -> int -> int

(** [binop b kind a c] adds a two-operand operation and returns its
    result variable.  [name] defaults to a generated temporary name. *)
val binop : t -> ?name:string -> Op.kind -> int -> int -> int

(** Unary register move. *)
val move : t -> ?name:string -> int -> int

(** Mark a variable as a primary output. *)
val mark_output : t -> int -> unit

(** Loop-carried pair: next iteration's [dst] is this iteration's
    [src]. *)
val feedback : t -> src:int -> dst:int -> unit

(** Validate and freeze. *)
val finish : t -> Graph.t
