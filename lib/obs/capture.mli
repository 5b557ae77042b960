(** Domain-local capture of metric writes.

    The parallel ATPG engine evaluates fault classes speculatively on
    worker domains, then commits the surviving results in class order
    on the orchestrating thread.  For the committed run to be
    bit-identical to the sequential one, the metric bumps an engine
    produces {e during} speculation must not hit the global registry
    as they happen (their order would depend on scheduling, and
    discarded speculation would pollute the counters).  Instead,
    {!Registry} routes its writes through this module: when the
    current domain is in {e capture} mode the write is deferred onto a
    tape, and the orchestrator {!replay}s the tape at commit time —
    same operations, deterministic order.  {e Suppress}
    mode discards writes entirely (used for per-domain workspace
    construction whose cost has no sequential counterpart).

    Modes are per-domain ({!Domain.DLS}), so the orchestrating thread's
    own writes are never affected by what worker domains are doing. *)

type tape
(** A sequence of deferred metric writes, in emission order. *)

val active : unit -> bool
(** [active ()] is true when the calling domain is capturing or
    suppressing. *)

val defer : (unit -> unit) -> bool
(** [defer th] consumes [th] when the calling domain is in capture mode
    (buffered) or suppress mode (dropped) and returns [true]; returns
    [false] — caller performs the write itself — otherwise.  Intended
    for {!Registry} internals. *)

val record : (unit -> 'a) -> 'a * tape
(** [record f] runs [f] with the calling domain in capture mode and
    returns its result plus the tape of writes it deferred.  Nesting
    restores the previous mode on exit, including on exceptions. *)

val suppress : (unit -> 'a) -> 'a
(** [suppress f] runs [f] with the calling domain's writes discarded. *)

val replay : tape -> unit
(** [replay t] performs the deferred writes in emission order, in the
    calling domain's current mode (normally: for real). *)
