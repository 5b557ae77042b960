(** Variable lifetimes under a schedule.

    Lifetimes are half-open intervals over step boundaries: a variable
    produced at the end of step [c] and last read during step [u]
    occupies a register during steps [c+1 .. u], encoded as
    [Interval.make c u].  Conventions:

    - primary inputs are loaded at boundary 0 and live to their last use;
    - primary outputs live to the end of the iteration ([n_steps]);
    - feedback sources live to [n_steps] (they are latched into the
      state register at the iteration boundary);
    - feedback destinations (state variables) are live from boundary 0;
    - constants are wired, not registered: their lifetime is empty.

    Variables tied by a feedback pair must share a register; {!classes}
    returns the induced register-sharing pre-merge. *)

type info = {
  intervals : Hft_util.Interval.t array; (** per variable id *)
  merged : Hft_util.Union_find.t;
    (** register sharing classes; must not be mutated after {!compute},
        which tabulates them in [members] *)
  wrap_moves : (int * int) list;
    (** feedback pairs [(src, dst)] whose lifetimes overlap and thus
        could {e not} be merged; the data path must copy [src]'s register
        into [dst]'s at the end of the iteration, and [dst]'s register
        receives a write at the final step boundary *)
  held_final : bool array;
    (** per variable: the value must survive the final step boundary
        (primary outputs, merged feedback sources, wrap destinations) and
        so must not share a register with anything written there *)
  n_steps : int;
  members : int list array;
    (** per variable: the members of its [merged] class, ascending *)
}

val compute : Graph.t -> Schedule.t -> info

(** Classes receiving an end-of-iteration wrap write (the [dst] sides of
    [wrap_moves], as class representatives). *)
val wrap_written_classes : info -> int list

(** [conflict info u v] — must [u] and [v] be kept in different
    registers?  Members of the same class never conflict with each
    other; a class conflicts when any member pair does.  Classes written
    at the final step boundary (wrap writes, births at [n_steps])
    conflict with each other even when their intervals are empty — two
    values cannot be latched into one register on the same clock
    edge. *)
val conflict : info -> int -> int -> bool

(** Representative-keyed lifetime of a merge class: hull of members. *)
val class_interval : info -> int -> Hft_util.Interval.t

(** Members of a variable's merge class (including itself), ascending;
    a table lookup. *)
val class_members : info -> int -> int list

(** Registerable variables: one representative per merge class.  Classes
    with an empty lifetime are skipped unless they contain a primary
    output, a feedback source or a feedback destination (a state
    variable): those must be latched somewhere regardless. *)
val register_candidates : Graph.t -> info -> int list
