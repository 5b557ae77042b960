(** Campaign supervisor: typed result discipline plus a retry ladder.

    {!protect} runs one engine invocation and converts every way it can
    die — chaos injection, cooperative deadline, any exception — into
    an [Error of Failure.t]; the happy path is a bare [try], so with
    chaos off and no deadlines a supervised engine is bit-identical to
    an unsupervised one.  {!ladder} stacks attempts on top: each retry
    multiplies the backtrack budget by [budget_growth] and the deadlines
    by [backoff_growth], counting each rung in [hft.robust.retries], and
    returns the last failure when the ladder is exhausted — the caller
    then degrades (random-pattern salvage, skip, zero result) instead of
    crashing. *)

type policy = {
  retries : int;  (** extra attempts after the first failure *)
  budget_growth : int;  (** backtrack-budget multiplier per rung *)
  deadline_wall : float option;  (** per-attempt wall deadline, seconds *)
  deadline_steps : int option;  (** per-attempt step (tick) deadline *)
  backoff_growth : float;  (** deadline multiplier per rung *)
  salvage_patterns : int;
      (** random patterns a degrading caller may try before marking the
          class aborted-with-reason *)
}

(** retries = 2, budget_growth = 2, no deadlines, backoff_growth = 2.0,
    salvage_patterns = 32. *)
val default : policy

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
    the policy sets no deadlines). *)
val ladder :
  policy -> site:Chaos.site -> budget:int ->
  (budget:int -> check:(unit -> unit) option -> 'a) ->
  ('a, Failure.t) result

(** The backtrack budget of the final rung:
    [budget * budget_growth ^ retries]. *)
val final_budget : policy -> budget:int -> int
