(** Structural fault collapsing: equivalence classes over the single
    stuck-at universe.

    Two faults are merged when their faulty circuits are {e identical}
    functions: stem/branch identification on fanout-free nets, plus the
    gate-boundary equivalences
    [And]: input sa-0 ≡ output sa-0, [Nand]: input sa-0 ≡ output sa-1,
    [Or]: input sa-1 ≡ output sa-1, [Nor]: input sa-1 ≡ output sa-0,
    [Buf]: input sa-v ≡ output sa-v, [Not]: input sa-v ≡ output sa-(¬v)
    — transitively closed with a union-find.  Because members share one
    faulty function, any pattern set detects either all or none of a
    class, so ATPG and fault simulation run on one representative per
    class and report results over the full list. *)

type t

(** Classes over [Fault.universe nl].  Emits [hft.collapse.*]
    counters. *)
val compute : Netlist.t -> t

val n_faults : t -> int
val n_classes : t -> int

(** Class of a fault, [None] when outside the universe. *)
val class_of : t -> Fault.t -> int option

val members : t -> int -> Fault.t list

(** Lowest-indexed member; deterministic. *)
val representative : t -> int -> Fault.t

(** [partition t faults] groups an arbitrary fault sample by class,
    first-occurrence order, leader first in each group; faults outside
    the universe become singletons. *)
val partition : t -> Fault.t list -> (Fault.t * Fault.t list) list
