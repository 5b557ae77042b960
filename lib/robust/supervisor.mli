(** Campaign supervisor: typed result discipline plus a retry ladder.

    {!protect} runs one engine invocation and converts every way it can
    die — chaos injection, exhausted step deadline, any exception —
    into an [Error of Failure.t]; the happy path is a bare [try], so
    with chaos off and no deadline a supervised engine is bit-identical
    to an unsupervised one.  {!ladder} stacks attempts on top: each of
    its 2 retries doubles the backtrack budget and the step deadline,
    counting each rung in [hft.robust.retries], and returns the last
    failure when the ladder is exhausted — the caller then degrades
    (random-pattern salvage, skip, zero result) instead of crashing. *)

type policy = {
  deadline_steps : int option;  (** per-attempt step (tick) deadline *)
}

(** No deadline: every attempt is unbounded. *)
val default : policy

(** Random patterns a degrading caller tries before marking the class
    aborted-with-reason: 32. *)
val salvage_patterns : int

(** {!guard} named after [site], with the chaos check for [site]
    inside the protected region. *)
val protect : site:Chaos.site -> (unit -> 'a) -> ('a, Failure.t) result

(** Run [f] once under the typed result discipline.  [Out_of_memory]
    and [Sys.Break] are re-raised; everything else becomes a failure,
    with [name] as its site.  No chaos draw of its own — injections from
    [Chaos.check]s inside [f] still classify as [Injected] — so it also
    serves supervision points outside the chaos-site taxonomy (e.g. one
    fuzz-oracle check). *)
val guard : name:string -> (unit -> 'a) -> ('a, Failure.t) result

(** [ladder policy ~site ~budget f] — run [f ~budget ~check] through the
    retry ladder.  [check] is the per-attempt deadline hook ([None] when
    the policy sets no [deadline_steps]: the attempt is unbounded). *)
val ladder :
  policy -> site:Chaos.site -> budget:int ->
  (budget:int -> check:(unit -> unit) option -> 'a) ->
  ('a, Failure.t) result

(** The backtrack budget of the ladder's final rung: [budget * 2 ^ 2]. *)
val final_budget : budget:int -> int
