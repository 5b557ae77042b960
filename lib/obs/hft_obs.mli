(** [Hft_obs]: zero-dependency observability for the hft stack.

    Four pieces: a metrics {!Registry} (named counters, gauges,
    histogram timers), hierarchical {!Span} tracing, the per-fault-class
    forensics {!Ledger} (the flight recorder, taped as [hft-ledger/1]
    while a campaign commits) and {!Export}/{!Table} rendering via
    {!Hft_util.Json} (including Chrome trace events).
    Everything is off by default; flip {!enabled} (or use
    {!with_enabled}) to record.  Disabled calls cost a ref dereference
    and a branch, and the engines accumulate locally and flush per
    call, so hot loops stay hot.

    The metric name catalogue ([hft.podem.*], [hft.fsim.*],
    [hft.flow.*], ...) is documented in the README's Observability
    section. *)

module Config = Config
module Clock = Clock
module Metric = Metric
module Capture = Capture
module Registry = Registry
module Span = Span
module Ledger = Ledger
module Export = Export
module Table = Table

(** Alias of [Config.enabled]. *)
val enabled : bool ref

val with_enabled : bool -> (unit -> 'a) -> 'a

(** Clear the metric registry, the span trace and the fault ledger. *)
val reset : unit -> unit

(** [isolated f] runs [f] against a completely fresh recorder — empty
    registry, span trace and ledger — and restores the
    caller's state afterwards (even on exceptions).
    Inside, [f] may freely {!reset} and read back; nothing it records
    leaks out, and nothing recorded outside is visible to it.  This is
    how the fuzz campaign runs whole differential engine campaigns as
    subroutines without erasing its own telemetry. *)
val isolated : (unit -> 'a) -> 'a
