(** Hierarchical timed spans.

    [with_ "podem" (fun () -> ...)] times the thunk and records a span;
    spans opened while another is running become its children, so a
    synthesis flow produces one tree per root call.  Everything is a
    no-op while [!Config.enabled] is false.  Spans are the
    orchestrating thread's: domain-pool workers open none (their
    telemetry is captured and replayed at commit), so the trace is one
    timeline. *)

type t

val name : t -> string

(** Wall-clock duration in seconds. *)
val elapsed : t -> float

(** Wall-clock start instant ([Clock.now] at open), for absolute-time
    exporters (Chrome trace events). *)
val start : t -> float

(** Attributes in insertion order; when a key was written several
    times, only the last value survives (in last-write position). *)
val attrs : t -> (string * string) list

(** Children in start order. *)
val children : t -> t list

(** Nodes in the subtree rooted at [t] (including [t]). *)
val count : t -> int

(** Run the thunk inside a new span.  Exception-safe: the span is
    closed and attached even if the thunk raises. *)
val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span (no-op when none or
    disabled). *)
val add_attr : string -> string -> unit

val add_attr_int : string -> int -> unit

(** Completed root spans, oldest first. *)
val roots : unit -> t list

val reset : unit -> unit

(** [isolated f] runs [f] against a fresh, empty trace and restores the
    previous one afterwards (even on exceptions). *)
val isolated : (unit -> 'a) -> 'a

(** Indented pretty-tree of one span / of every root. *)
val render_one : t -> string

val render : unit -> string

val to_json : t -> Hft_util.Json.t

(** All roots as a JSON list. *)
val trace_to_json : unit -> Hft_util.Json.t
