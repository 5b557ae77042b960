(** Typed engine-failure taxonomy for the campaign supervisor.

    Every supervised engine invocation (PODEM call, fault-simulation
    pass, fault collapse, tape serialisation) finishes as
    [Ok outcome] or [Error of t]; the supervisor's retry/degrade ladder
    dispatches on the constructor, and the final reason lands in the
    forensics ledger as [Aborted {reason}] evidence — a campaign never
    dies of an unhandled exception. *)

type t =
  | Budget_exhausted of { site : string; steps : int; limit : int }
      (** A cooperative step budget (implication ticks) ran out. *)
  | Engine_exception of string
      (** The engine raised; the exception is rendered, never re-raised. *)
  | Injected of { site : string; seq : int }
      (** The chaos harness tripped injection number [seq] at [site]. *)

(** The site the failure was observed at. *)
val site : t -> string

(** Short display form, e.g. ["budget_exhausted(podem: 9 steps > 8)"]
    — used verbatim as the ledger's abort reason. *)
val to_string : t -> string

val to_json : t -> Hft_util.Json.t
