(** Process-global registry of named metrics.

    Recording functions ({!incr}, {!set}, {!observe}, {!time}) are
    no-ops while [!Config.enabled] is false; creation and snapshot
    functions always work, so reporting code need not care about the
    switch. *)

(** Find-or-create.  Raises [Invalid_argument] if [name] already exists
    with a different kind. *)
val counter : string -> Metric.t

val gauge : string -> Metric.t
val timer : string -> Metric.t
val histogram : string -> Metric.t

(** Record by name (find-or-create, then update) — gated on
    [Config.enabled]. *)
val incr : ?by:int -> string -> unit

val set : string -> float -> unit
val observe : string -> float -> unit

(** Raw-valued histogram observation (cone sizes, batch widths, ...) —
    same bucketed summary as {!observe} but rendered unitless. *)
val record : string -> float -> unit

(** [record_ints name a n] records [a.(0)] … [a.(n-1)], in order, as
    [n] calls of {!record} would, under one lock (one deferred write on
    a capturing domain).  [a] may be reused as soon as it returns. *)
val record_ints : string -> int array -> int -> unit

(** [time name f] observes [f]'s wall-clock duration (seconds) under
    timer [name]; when disabled it is exactly [f ()]. *)
val time : string -> (unit -> 'a) -> 'a

val find : string -> Metric.snapshot option

(** Headline value of [name], 0 if absent. *)
val value : string -> float

(** Counter value / observation count of [name], 0 if absent. *)
val count : string -> int

(** All metrics, sorted by name. *)
val snapshot : unit -> Metric.snapshot list

val reset : unit -> unit

(** [isolated f] runs [f] against a fresh, empty registry and restores
    the previous contents afterwards (even on exceptions).  Metrics
    recorded inside are invisible outside and vice versa. *)
val isolated : (unit -> 'a) -> 'a
