(** One-call synthesis-for-testability flows.

    Each flow takes a behaviour and a resource budget and returns a
    complete data path plus a uniform DFT report — these are the entry
    points the examples and the CLI use. *)

open Hft_cdfg

type dft_report = {
  flow : string;
  n_registers : int;
  n_scan_registers : int;
  n_test_registers : int;       (** BIST roles of any kind *)
  n_cbilbo : int;
  datapath_loops : int;         (** non-self loops in the S-graph *)
  self_loops : int;
  sequential_depth : int option;
  area_overhead : float;        (** vs the conventional flow's area *)
  test_sessions : int;          (** BIST flows; 0 otherwise *)
}

type result = {
  graph : Graph.t;
  sched : Schedule.t;
  binding : Hft_hls.Fu_bind.t;
  alloc : Hft_hls.Reg_alloc.t;
  datapath : Hft_rtl.Datapath.t;
  report : dft_report;
}

val default_resources : (Op.fu_class * int) list

(** Plain cost-driven synthesis; the baseline all reports are measured
    against. *)
val synthesize_conventional :
  ?width:int -> ?resources:(Op.fu_class * int) list -> Graph.t -> result

(** Loop-aware synthesis for partial scan: scan-variable selection
    (Potkonjak–Dey–Roy), loop-avoiding binding, scan annotation; the
    resulting S-graph is loop-free modulo self-loops. *)
val synthesize_for_partial_scan :
  ?width:int -> ?resources:(Op.fu_class * int) list -> Graph.t -> result

(** BIST-oriented synthesis: self-adjacency-avoiding assignment plus a
    BILBO role plan and session schedule. *)
val synthesize_for_bist :
  ?width:int -> ?resources:(Op.fu_class * int) list -> Graph.t -> result

(** {1 Uniform flow dispatch}

    One name per flow, so callers (the CLI, the lint driver, tests)
    can select a flow by string without enumerating the entry points. *)

type flow_kind = Conventional | Partial_scan | Bist

val flow_kinds : (string * flow_kind) list
val flow_kind_to_string : flow_kind -> string

val synthesize :
  ?width:int -> ?resources:(Op.fu_class * int) list -> flow_kind -> Graph.t ->
  result

val report_header : string list
val report_row : dft_report -> string list

(** {1 Gate-level test campaign}

    The uniform post-synthesis sequence: expand the data path to gates,
    sample the collapsed fault list, run (partial-scan) sequential ATPG,
    then measure final coverage by fault simulation.

    The ATPG collapses faults into equivalence classes and drops faults
    after every generated test, and every test lands in a
    {!Pattern_store}, so the final coverage run replays deterministic,
    fault-targeting patterns through the scan view
    ({!Hft_gate.Fsim.comb_scan}: scan cells pattern-loaded and observed,
    cone-limited) with random fill up to [n_patterns]. *)

(** The campaign prologue: expand [r]'s data path to gates, keep each
    collapsed fault whose [rng] draw out of [sample] is 0 (one draw per
    fault, in order), and list the scan registers' flip-flops.  Returns
    the netlist, the sampled faults and the scan cells; {!test_campaign}
    runs it with a fresh rng seeded with [seed]. *)
val expand_and_sample :
  rng:Hft_util.Rng.t -> sample:int -> result ->
  Hft_gate.Netlist.t * Hft_gate.Fault.t list * int list

type campaign = {
  c_netlist : Hft_gate.Netlist.t;
  c_faults : Hft_gate.Fault.t list;   (** the sampled fault list *)
  c_scanned : int list;               (** scan-cell DFF node ids *)
  c_atpg : Hft_gate.Seq_atpg.stats;
      (** with the campaign's ledger rows when observability is on *)
  c_tests : Hft_obs.Ledger.test list;
      (** the ledger record of every test, restored ones first, each
          with its stimulus and pattern-store rows; [[]] when
          observability is off *)
  c_fsim : Hft_gate.Fsim.comb_result;
  c_patterns_stored : int;            (** ATPG-derived pattern rows *)
  c_resumed_classes : int;            (** classes restored on resume *)
  c_resumed_tests : int;              (** tests restored on resume *)
  c_t_atpg : float;                   (** ATPG leg wall seconds *)
  c_t_fsim : float;                   (** fsim leg wall seconds *)
  c_par : Hft_par.Stats.t;
      (** scheduler summary of the ATPG leg — measured campaign
          totals when [jobs > 1], the degenerate
          {!Hft_par.Stats.sequential} summary otherwise, so every
          campaign carries a utilization figure *)
}

(** [test_campaign r] — [sample] keeps one fault in N ([seed] fixes the
    sample; below 1 raises {!Hft_robust.Validation.Invalid}),
    [backtrack_limit]/[max_frames] bound the PODEM search, [n_patterns]
    is the minimum final-fsim pattern count.

    The ATPG and every fault-simulation leg run under the typed failure
    discipline of {!Hft_robust.Supervisor.default}: a failed engine
    invocation degrades (retry, salvage, skip, empty result), never
    crashes the campaign.

    [tape] names the campaign tape, an [hft-ledger/1] file
    ({!Hft_obs.Ledger.record}s through {!Hft_robust.Checkpoint.Tape}):
    each generated test with its vectors and each class's ledger row,
    charges included, are appended and flushed as the campaign commits,
    and an end marker follows the last class.  The tape needs
    observability on (else {!Hft_robust.Validation.Invalid}), and holds
    only this campaign, whatever ran before it.  With [resume] an
    existing tape is read first through {!Hft_obs.Ledger.of_jsonl} (a
    tape the loader rejects, an [hft-ckpt/1] file among them, raises
    {!Hft_robust.Validation.Invalid} at site [flow.resume]) and resumed
    through {!Hft_robust.Checkpoint.Tape.resume}: its fingerprint (flow,
    every search knob, fault/PI/scan counts, a structural
    netlist hash) must match the current run exactly, every restored
    member must be a sampled fault, and only then is the tape compacted
    to its committed records, kept as written.  Restored tests are
    replayed into the pattern store, each detecting the members of the
    rows that name it; restored classes get their rows back and are
    never re-targeted, so an interrupted campaign continues
    bit-identically to an uninterrupted one, its test ids after the
    restored tests'.  A class still pending at the interruption lacks
    the fsim events that pre-interruption drop passes charged it:
    resume does not redo those passes.  Its header keeps
    ["strategy": "fast"] as a constant, so earlier tapes, which carry
    it, still resume.

    [guided] (default [true]) threads
    {!Hft_analysis.Guidance} into every PODEM call: static untestability
    proofs, mandatory-assignment seeding and SCOAP-ordered search.
    Per-fault verdicts are provably no worse than unguided (a guided
    abort falls back to the unguided search); [~guided:false] restores
    the historical search bit for bit.  The flag is part of the
    tape fingerprint.

    [jobs] shards the ATPG phase over an OCaml 5 domain pool (see
    {!Hft_gate.Seq_atpg.run}).  Coverage, verdicts, tests and ledger
    waterfalls are bit-identical at any jobs count, so [jobs] is
    deliberately {e not} part of the tape fingerprint: a campaign taped
    at one jobs count resumes correctly at another.

    Scheduler telemetry ([c_par]) is additionally published once per
    campaign as the [hft.par.*] registry series, a jobs-dependent
    summary outside the engine bit-identity surfaces. *)
val test_campaign :
  ?backtrack_limit:int -> ?max_frames:int -> ?sample:int -> ?seed:int ->
  ?n_patterns:int ->
  ?tape:string -> ?resume:bool -> ?guided:bool -> ?jobs:int ->
  result -> campaign
