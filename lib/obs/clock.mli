(** Wall-clock source for spans and timers.

    Defaults to [Unix.gettimeofday]; tests substitute a deterministic
    counter so span durations are exact. *)

(** Current time in seconds. *)
val now : unit -> float

(** [with_source f body] runs [body] with [f] as the clock, restoring
    the previous source afterwards (also on exceptions). *)
val with_source : (unit -> float) -> (unit -> 'a) -> 'a
