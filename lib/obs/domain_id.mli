(** Logical domain id for telemetry tagging.

    [0] = sequential / orchestrator (the default on every fresh
    domain); the domain pool tags its workers [1 .. jobs-1] once at
    spawn.  {!Span} stamps every span with the recording domain's id,
    which is what gives the Chrome trace one timeline per domain. *)

val get : unit -> int

(** Set the calling domain's id (domain-local; worker start-up only). *)
val set : int -> unit
