(** PODEM combinational test generation with dual three-valued
    simulation (good machine / faulty machine).

    Works on any netlist whose relevant part is combinational:
    [assignable] nodes (PIs) take decisions; every other source ([Pi]s
    not listed, [Dff]s) is held at X — this is how unknown initial state
    and uncontrollable inputs are modelled.  A fault is detected when
    some [observe] node carries a D or D' (good and faulty values both
    defined and different). *)

type effort = {
  mutable decisions : int;
  mutable backtracks : int;
  mutable implications : int;
  mutable guided_cuts : int;
      (** branches pruned by a static requirement-set conflict *)
  mutable static_proof : bool;
      (** the verdict came from the static analysis, no search ran *)
}

type result =
  | Test of (int * bool) list  (** satisfying assignment per assignable PI *)
  | Untestable                 (** proven: search space exhausted *)
  | Aborted                    (** backtrack limit hit *)

(** Static-analysis guidance, built by [Hft_analysis.Guidance] (plain
    data here so the analysis library can layer above this one).  Node
    ids refer to the netlist the search runs on.

    - [g_static_untestable]: the analysis proved no assignment detects
      the fault; [generate] returns [Untestable] without searching.
    - [g_common_required]: literals [(node, value)] every detecting
      test must satisfy — seeded as mandatory assignments outside the
      decision stack and enforced as conflicts during search.
    - [g_site_required]: one requirement set per fault site; when every
      site's set is contradicted by the current cube the branch is cut.
    - [g_cc0]/[g_cc1]/[g_co]: SCOAP controllability/observability used
      purely to order objectives, frontier gates and backtrace inputs.

    Soundness contract: the requirement sets may only contain literals
    that hold in {e every} detecting completion (per site), so cuts and
    mandatory assignments never remove a test and [Untestable] stays a
    proof. *)
type guidance = {
  g_static_untestable : bool;
  g_common_required : (int * int) array;
  g_site_required : (int * int) array array;
  g_cc0 : int array;
  g_cc1 : int array;
  g_co : int array;
}

(** A guidance factory: called per (netlist, observe set, fault) by the
    engines that thread guidance through to [generate]. *)
type provider =
  Netlist.t -> observe:int list -> faults:Fault.t list -> guidance

(** Regression-canary knob (default [true]).  Clearing it restores the
    pre-fix objective ladder that could declare [Untestable] when the
    preferred propagation site's X-paths died — the historical
    seed-4246 unsoundness — so the fuzz campaign's differential oracles
    can prove they still catch that bug class.  Never clear it outside
    a canary check: with it off, [Untestable] is {e not} a proof. *)
val propagation_fallbacks_enabled : bool ref

(** [generate nl ~faults ~assignable ~observe ~backtrack_limit] —
    [faults] lists the injection sites of one logical fault (several
    sites for a fault replicated across time frames).  [check] is
    called once per search iteration; it may raise (e.g. a cooperative
    {!Hft_robust.Deadline}) to abandon the attempt — the exception
    propagates to the caller unchanged — but must not run [generate]
    itself: calls on one netlist share a search workspace per domain
    (rebuilt when {!Netlist.version} changes), so one search runs at a
    time per netlist and domain.

    Without [?guidance] the search is bit-identical to the historical
    behaviour.  With guidance, the per-fault verdict is provably no
    worse: [Test]/[Untestable] are sound proofs, and a guided [Aborted]
    falls back to one unguided run with the same budget and returns its
    outcome (efforts combined). *)
val generate :
  ?backtrack_limit:int -> ?check:(unit -> unit) -> ?guidance:guidance ->
  Netlist.t -> faults:Fault.t list -> assignable:int list ->
  observe:int list -> result * effort

(** Convenience for fully-combinational circuits: assignable = all PIs,
    observe = all POs. *)
val generate_comb :
  ?backtrack_limit:int -> Netlist.t -> fault:Fault.t -> result * effort

(** [check nl ~faults ~assignment ~observe] — verify by dual simulation
    that the assignment detects the fault (used by tests). *)
val check :
  Netlist.t -> faults:Fault.t list -> assignment:(int * bool) list ->
  observe:int list -> bool
