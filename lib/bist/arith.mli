(** Arithmetic built-in self-test
    (Mukherjee–Kassab–Rajski–Tyszer VTS'95, survey §5.4).

    Instead of dedicated LFSR/MISR hardware, existing adders generate
    patterns (an accumulator stepping by a constant) and compact
    responses (rotate-carry accumulation).  Pattern quality is judged by
    {e subspace state coverage}: the fraction of low-order [k]-bit input
    subspaces an operation's two input streams exercise. *)

type gen

(** Accumulator generator: [s(n+1) = s(n) + increment mod 2^width].
    Odd increments sweep the full space. *)
val create : width:int -> seed:int -> increment:int -> gen

val next : gen -> int

(** [subspace_coverage ~k pairs] over an operand-pair stream: fraction
    of the [2^2k] joint low-[k]-bit states covered. *)
val subspace_coverage : k:int -> (int * int) list -> float

(** Coverage-guided binding: assign operations to unit instances (same
    rules as {!Hft_hls.Fu_bind.bind}) choosing the instance whose
    accumulated input-state set grows most (union of member input
    states), under the per-class caps. *)
val coverage_bind :
  resources:(Hft_cdfg.Op.fu_class * int) list ->
  width:int -> samples:int -> seed:int ->
  Hft_cdfg.Graph.t -> Hft_cdfg.Schedule.t -> Hft_hls.Fu_bind.t

(** Input-pair stream seen by an op when the behaviour runs on the
    accumulator stimulus (all primary inputs driven by one generator
    each, states default 0). *)
val op_streams :
  width:int -> samples:int -> seed:int -> Hft_cdfg.Graph.t ->
  (int * (int * int) list) list

(** Response compaction by rotate-carry addition; the software model of
    an adder-based compactor. *)
val compact : width:int -> int list -> int
