(** CDFG loop analysis (survey section 3.3.1).

    A CDFG loop is a cycle of data-dependency edges once loop-carried
    feedback pairs are included.  Every CDFG loop necessarily becomes a
    data-path loop in any implementation, unless one of the variables
    carried around the loop is held in a scan register. *)

type loop = {
  ops : int list;   (** operation ids around the cycle, smallest first *)
  vars : int list;  (** variables carried along the cycle's edges *)
}

(** Enumerate loops, bounded; defaults generous enough for the benchmark
    suite ([max_len = 24], [max_count = 4096]). *)
val enumerate : ?max_len:int -> ?max_count:int -> Graph.t -> loop list

(** [breaks g loop scan_vars] — does scanning one of [scan_vars] break
    [loop]?  True iff some scanned variable is carried on the loop. *)
val breaks : loop -> int list -> bool

(** Loops not broken by the given scan-variable set. *)
val unbroken : loop list -> int list -> loop list
