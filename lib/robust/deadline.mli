(** Cooperative per-attempt deadlines: no signals, no threads, no clock.

    A deadline is a tick counter the engine's inner loop advances
    through the hook it already exposes ({!Hft_gate.Podem.generate}'s
    [?check]); {!tick} raises {!Expired} when the step budget runs out.
    Counting steps, never time, keeps an expiry — and so every verdict —
    independent of host speed. *)

exception Expired of { steps : int; limit : int }

type t

(** [make ~steps] — a budget of [steps] ticks. *)
val make : steps:int -> t

(** Advance one tick; raises {!Expired} past the budget. *)
val tick : t -> unit

(** [checker t] is [fun () -> tick t] — the shape engine hooks expect. *)
val checker : t -> unit -> unit
