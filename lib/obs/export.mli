(** Registry snapshots rendered for people (fixed-width table) or for
    machines (one JSON object keyed by metric name, each value the
    {!Metric.snapshot_to_json} form — the same shape `hft bench` embeds
    in [BENCH_hft.json]); plus the Chrome trace-event exporter for the
    span tree. *)

val metrics_table : ?snapshot:Metric.snapshot list -> unit -> string
val metrics_json : ?snapshot:Metric.snapshot list -> unit -> Hft_util.Json.t

(** [chrome_trace ()] — the span forest as a Chrome trace-event
    document ([{"traceEvents": [...]}]): one complete ("ph":"X") event
    per span, all on [tid] 0, with [ts]/[dur] in microseconds relative
    to the earliest root.  Load the serialised file in
    [chrome://tracing] or Perfetto. *)
val chrome_trace : ?roots:Span.t list -> unit -> Hft_util.Json.t

(** Self time per span {e name}: elapsed minus children's elapsed
    (clamped at 0), summed across the forest, in seconds, sorted by
    descending self time then name.  [hft profile]'s per-phase table. *)
val self_times : ?roots:Span.t list -> unit -> (string * float) list

(** flamegraph.pl folded-stack rendering: one ["a;b;c <µs>"] line per
    distinct span path (value = integer self-time microseconds).  Lines
    are sorted, so equal inputs produce byte-equal output; zero-valued
    paths are dropped. *)
val folded_stacks : ?roots:Span.t list -> unit -> string
