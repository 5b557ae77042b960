(** Behaviour-preserving CDFG transformations for testability
    (survey section 3.4; Dey–Potkonjak ITC'94).

    A {e deflection operation} is an operation with an identity element
    as one operand (add-0, mul-1): inserting one on a data edge leaves
    the computed function unchanged but splits a variable's lifetime in
    two, relieving register-sharing bottlenecks so scan variables can
    share scan registers. *)

(** [insert_deflection g ~var ~consumer] rebuilds [g] with a deflection
    op between the definition of [var] and its use by op [consumer]:
    the consumer reads [var'] = [var] + 0 instead.  Raises
    [Invalid_argument] if [consumer] does not read [var]. *)
val insert_deflection : Graph.t -> var:int -> consumer:int -> Graph.t

(** [add_test_points g ~controls ~observes] marks variables with
    test-mode control/observe points (metadata consumed by synthesis;
    each costs one test register / I/O route in the area model). *)
val add_test_points : Graph.t -> controls:int list -> observes:int list -> Graph.t

(** [equivalent ~width ~trials rng a b] — empirical behaviour check:
    run both graphs on [trials] random input/state valuations and
    compare every primary output and feedback source by name.  The
    graphs must declare identical input/output/state names. *)
val equivalent :
  width:int -> trials:int -> Hft_util.Rng.t -> Graph.t -> Graph.t -> bool
