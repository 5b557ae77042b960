(** Sequential ATPG by iterative time-frame expansion.

    The sequential circuit is unrolled into [frames] combinational
    copies; DFF outputs in frame 0 start at X (unknown initial state)
    except for {e scanned} flip-flops, whose frame-0 value is a free
    decision variable (scan load) and whose final-frame D input is
    observable (scan out).  The fault is injected in every frame.

    The default [Drop] strategy is the classical ATPG pipeline: the
    fault list is first collapsed into structural equivalence classes
    ({!Fault_collapse}), PODEM runs on one representative per class, and
    every generated test is immediately fault-simulated (cone-limited,
    {!Fsim.detect_groups}) against the remaining undetected classes —
    serendipitous detections are confirmed by dual three-valued
    simulation ({!Podem.check}, unknown state at X, so dropping is sound
    for any initial state) and dropped before the next PODEM call.
    [Naive] is the historical one-PODEM-call-per-fault loop, kept for
    differential measurement.

    This module is the measurement instrument for the survey's central
    empirical claim (§3.1): test generation effort explodes with
    S-graph loops and grows with sequential depth, and scan — full or
    partial — is what tames it. *)

type stats = {
  detected : int;
  untestable : int;
  aborted : int;
  total : int;
  decisions : int;
  backtracks : int;
  implications : int;
  frames_used : int;
}

(** [Drop] (default): collapse + fault dropping. [Naive]: one PODEM call
    per fault, no collapsing — the pre-optimization behaviour. *)
type strategy = Naive | Drop

(** A generated test reconstructed in original-circuit terms: one PI
    vector per frame ([Netlist.pis] order) plus the frame-0 scan load
    (in [scanned] order).  Inputs PODEM left at X are filled with 0.
    [t_detects] lists the faults this test was proven to detect at
    generation time (the targeted class plus any swept by dropping) —
    {!replay} only re-checks those, keeping confirmation cheap. *)
type test = {
  t_frames : int;
  t_pi_vectors : bool array array;
  t_scan_state : bool array;
  t_detects : Fault.t list;
}

val fault_coverage : stats -> float

(** Where an assignable input of an unrolled view comes from in the
    original circuit (used to rebuild {!test}s). *)
type origin

(** An ATPG workspace: the netlist PODEM and fault simulation run on,
    its assignable inputs and observed outputs, the map from an
    original-circuit fault to its injection sites in the workspace, and
    the frame count.  Time-frame expansion builds one per frame count;
    full scan's one-frame view is the circuit itself (DFF outputs
    assignable, DFF D inputs observed, every fault mapped to itself). *)
type unrolled = {
  u_net : Netlist.t;
  u_assignable : int list;
  u_observe : int list;
  u_map_fault : Fault.t -> Fault.t list;
  u_origin : (int, origin) Hashtbl.t;
  u_frames : int;
}

(** The drop and salvage check: {!Fsim.detect_groups_tri} (X-sound) for
    sequential ATPG, {!Fsim.detect_groups} (two-valued, exact when every
    source is assigned) for full scan.  The campaign prepares each
    class's {!Fsim.group} once per frame count. *)
type detect =
  ?on_group_events:(int -> int -> unit) -> ?strategy:Fsim.strategy ->
  Netlist.t -> assignment:(int * bool) list -> observe:int list ->
  Fsim.group list -> bool array

(** [campaign ~view ~detect nl ~faults] — the one ATPG campaign loop
    every engine runs on: fault collapsing (with its uncollapsed
    fallback), forensics-ledger rows, the frame ladder from
    [min_frames] to [max_frames] under the supervised PODEM retry
    ladder, random-pattern salvage once a ladder is exhausted, drop
    passes with [detect], the speculate-then-commit
    window over the {!Hft_par} pool and the
    [hft.seq_atpg.{classes,faults,detected,dropped}] counters.

    [view src frames] builds the workspace for [frames] frames from
    [src]: lazily on the commit thread with [src = nl], and once per
    pool worker and frame count with [src] a {!Netlist.copy} of [nl].
    [on_test u assignment ~detects] fires once per generated test, in
    commit order, with the workspace, PODEM's (or salvage's) raw
    assignment and the faults the test was proven to detect.  All other
    arguments are as for {!run}, which is [campaign] over
    time-frame expansion with the three-valued check. *)
val campaign :
  ?backtrack_limit:int -> ?min_frames:int -> ?max_frames:int ->
  ?strategy:strategy ->
  ?on_test:(unrolled -> (int * bool) list -> detects:Fault.t list -> unit) ->
  ?supervisor:Hft_robust.Supervisor.policy option ->
  ?resolved:(string -> Hft_obs.Ledger.row option) ->
  ?on_resolved:(Hft_obs.Ledger.row -> unit) ->
  ?guidance:Podem.provider ->
  ?on_par_stats:(Hft_par.Stats.t -> unit) ->
  ?jobs:int ->
  view:(Netlist.t -> int -> unrolled) -> detect:detect ->
  Netlist.t -> faults:Fault.t list -> stats

(** [run nl ~faults ~scanned ~max_frames ~backtrack_limit] attempts each
    fault (class) with growing frame counts (1, 2, ... max_frames),
    recording aggregate effort.  [scanned] lists DFF node ids treated as
    scan cells.  [assignable_pis] restricts which of the original PIs
    ATPG may drive (default: all) — used for controller–data-path
    composites whose control lines are internally driven.
    [strapped] PIs get a single shared copy across all frames (test-mode
    and test-select pins are held constant during a test in reality, and
    one decision instead of one per frame keeps the search tractable).
    [on_test] is called once per PODEM-generated test, e.g. to feed a
    pattern store.  Outcomes are reported over the full fault list: a
    class outcome applies to each of its sampled members.

    [supervisor] (default {!Hft_robust.Supervisor.default}) runs every
    engine invocation — collapse, PODEM, drop passes — under the typed
    failure discipline: PODEM failures climb the retry ladder, then
    degrade to a random-pattern salvage, then resolve the class
    aborted-with-reason; fsim/collapse failures skip the optimisation
    and continue.  Pass [~supervisor:None] for the bare engines
    (failures propagate as exceptions).  With chaos off and no
    deadlines the supervised run is bit-identical to the unsupervised
    one.

    [resolved] (resume) maps a class representative's display string
    to the row an interrupted run recorded for it: matching classes get
    its resolution and charges ({!Hft_obs.Ledger.restore}) and are never
    re-targeted.  [on_resolved] receives the ledger row of each {e
    fresh} resolution, charges complete, in engine order: a generated
    test's drop rows come after [on_test] and before the row of the
    class that produced it — the flow appends them to its campaign tape
    ({!Hft_obs.Ledger.record}).  Both need observability on (ledger
    handles); with it off [on_resolved] never fires.

    [guidance] (a {!Podem.provider}, typically
    [Hft_analysis.Guidance.provide]) is invoked per (unrolled netlist,
    fault) and threads static-analysis guidance into every PODEM call:
    per-fault verdicts are provably no worse than unguided (see
    {!Podem.generate}); omitting it keeps the historical search bit for
    bit.

    [jobs] (default 1, clamped to 1–64) shards the campaign over an
    {!Hft_par} domain pool: pending classes are PODEM-evaluated
    speculatively on workers, then committed strictly in class order.
    Coverage, verdicts, tests, ledger waterfalls and the determinism-
    contract counters are bit-identical at any jobs count; a worker
    domain that dies degrades its shard to inline sequential
    evaluation (one [hft.robust.degraded] count per failure) with
    unchanged results.  [jobs = 1] is the historical
    sequential path, bit for bit.

    [on_par_stats] receives the campaign's scheduler summary
    ({!Hft_par.Stats.t}) once, after the last class commits: measured
    campaign totals on the parallel path, the degenerate
    {!Hft_par.Stats.sequential} summary on the sequential one.
    Collection is observational — all bit-identity contracts above hold
    with or without it. *)
val run :
  ?backtrack_limit:int -> ?min_frames:int -> ?max_frames:int ->
  ?assignable_pis:int list -> ?strapped:int list ->
  ?strategy:strategy -> ?on_test:(test -> unit) ->
  ?supervisor:Hft_robust.Supervisor.policy option ->
  ?resolved:(string -> Hft_obs.Ledger.row option) ->
  ?on_resolved:(Hft_obs.Ledger.row -> unit) ->
  ?guidance:Podem.provider ->
  ?on_par_stats:(Hft_par.Stats.t -> unit) ->
  ?jobs:int ->
  Netlist.t -> faults:Fault.t list -> scanned:int list -> stats

(** [replay nl ~scanned ~tests faults] — which of [faults] the
    reconstructed [tests] actually detect.  Each test is applied on the
    unrolled circuit with frame-0 unscanned state held at 0 (the
    concrete counterpart of the X PODEM guaranteed detection under) and
    checked with the cone-limited {!Fsim.detect_groups}; detected faults
    are dropped between tests.  Returns [(detected, undetected)].
    Pass the same [assignable_pis]/[strapped] as the generating {!run}
    so strapped pins keep their shared per-test value. *)
val replay :
  ?assignable_pis:int list -> ?strapped:int list -> Netlist.t ->
  scanned:int list -> tests:test list -> Fault.t list ->
  Fault.t list * Fault.t list

(** Unroll helper exposed for tests: returns the unrolled netlist, the
    assignable PI ids, the observe ids, and a function mapping a fault
    to its per-frame injection sites. *)
val unroll :
  ?assignable_pis:int list -> ?strapped:int list -> Netlist.t -> frames:int ->
  scanned:int list ->
  Netlist.t * int list * int list * (Fault.t -> Fault.t list)
