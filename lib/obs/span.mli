(** Hierarchical timed spans.

    [with_ "podem" (fun () -> ...)] times the thunk and records a span;
    spans opened while another is running become its children, so a
    synthesis flow produces one tree per root call.  Everything is a
    no-op while [!Config.enabled] is false. *)

type t

val name : t -> string

(** Wall-clock duration in seconds. *)
val elapsed : t -> float

(** Wall-clock start instant ([Clock.now] at open), for absolute-time
    exporters (Chrome trace events). *)
val start : t -> float

(** {!Domain_id} of the domain that opened the span — 0 for everything
    the orchestrator runs.  The Chrome trace exporter maps this to the
    event's [tid]. *)
val domain : t -> int

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

(** Flat per-domain timeline slices recorded beside the span tree.
    Worker domains never open spans (their telemetry replays on the
    orchestrator), so the domain pool measures each speculative task on
    its worker and flushes a slice per task here after the wave; the
    Chrome trace exporter renders them on the worker's own [tid].
    [tk_flow_out]/[tk_flow_in] carry flow-arrow ids (speculation-to-
    commit handoffs). *)
type track_event = {
  tk_domain : int;
  tk_name : string;
  tk_start : float;  (** seconds, same clock as {!start} *)
  tk_dur : float;  (** seconds *)
  tk_args : (string * string) list;
  tk_flow_out : int option;  (** flow started at the slice's end *)
  tk_flow_in : int list;  (** flows terminating at the slice's start *)
}

(** Record one slice (no-op while disabled).  Orchestrator-thread only:
    the store is unlocked single-writer. *)
val add_track :
  ?flow_out:int -> ?flow_in:int list -> ?args:(string * string) list ->
  domain:int -> name:string -> start:float -> dur:float -> unit -> unit

(** Recorded slices, oldest first. *)
val tracks : unit -> track_event list

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
