(** Fault simulation.

    Combinational, many patterns ({!comb}, {!comb_scan}):
    pattern-parallel (62 patterns per machine word).  Two strategies
    share one harness: [Naive] re-evaluates the whole netlist per fault
    (the historical algorithm, kept as the differential-testing oracle),
    [Cone] (the default) copies-on-write from the good-value state and
    re-evaluates only the fault's precomputed fanout cone
    ({!Netlist.fanout_cone}), comparing only observation points inside
    the cone.  Nodes outside the cone provably keep their good values,
    so both strategies report bit-identical detections.

    Single pattern, the drop checks ({!detect_groups},
    {!detect_groups_tri}): one three-valued kernel over prepared
    {!group}s.  [Cone] propagates only the fault-effect wavefront — a
    node is re-evaluated only when one of its fanins carries a faulty
    value different from the good one — over {!Sim}'s topo-ordered
    heap, and starts none for a group the pattern cannot activate;
    [Naive] re-evaluates the whole netlist per group.  [Cone] keeps its
    node-sized arrays in one workspace per domain, grown to the largest
    netlist it has served, so a call allocates nothing netlist-sized.

    [hft.fsim.events] is a cost unit, not a count of node evaluations:
    [n_nodes] for the good pass plus, per fault or group, its cone size
    (the size of the union of its roots' cones) under [Cone] or
    [n_nodes] under [Naive].  The drop kernel evaluates far fewer nodes
    than it is charged, so counters and ledger rows stay comparable
    across engine changes.  A group's charge is computed at most once,
    on first read, and only read when observability is on or a caller
    asks for it.
    Sequential: cycle-accurate single-fault simulation over a stimulus
    sequence. *)

type strategy = Naive | Cone

type comb_result = {
  detected : Fault.t list;
  undetected : Fault.t list;
  n_patterns : int;
}

val coverage : comb_result -> float

(** [comb nl ~patterns faults] — {!comb_scan} with no scan cells:
    [patterns] is a matrix [(pattern, pi index in Netlist.pis order)].
    A fault is detected when any PO differs on any pattern.  DFF states
    are held at 0 (use {!comb} on purely combinational blocks for exact
    results). *)
val comb :
  ?strategy:strategy ->
  Netlist.t -> patterns:bool array array -> Fault.t list -> comb_result

(** [comb_random nl ~rng ~n_patterns faults] with uniform random
    patterns. *)
val comb_random :
  ?strategy:strategy ->
  Netlist.t -> rng:Hft_util.Rng.t -> n_patterns:int -> Fault.t list ->
  comb_result

(** [comb_scan nl ~scanned ~patterns faults] — full/partial-scan fault
    simulation as one combinational pass per pattern.  Each pattern row
    is [|pis| + |scanned|] wide: the tail columns preset the scan cells
    (in [scanned] order) as pseudo primary inputs, and the D input of
    every scan cell joins the POs as an observation point (the captured
    next state is shifted out).  Non-scanned DFFs are held at 0. *)
val comb_scan :
  ?strategy:strategy ->
  Netlist.t -> scanned:int list -> patterns:bool array array ->
  Fault.t list -> comb_result

(** A drop-check group: one logical fault as a list of simultaneous
    injection sites (several when a fault is replicated across time
    frames), prepared for one netlist — the node whose good value each
    injecting site replaces (a pin fault on a [Dff], or on a pin its
    node lacks, injects nothing in one combinational pass) and, once
    read, its charge.  Prepare each group once per netlist and reuse it
    across calls; rebuild it after a structural edit. *)
type group

val group : Netlist.t -> Fault.t list -> group

(** [detect_groups nl ~assignment ~observe groups] — single-pattern
    detection check used for fault dropping.  [assignment] gives values
    for source nodes (PIs/DFFs; unlisted sources default to [false]).
    Returns a per-group flag: some node in [observe] differs from the
    good machine with all the group's sites active at once.
    [on_group_events] (default: none) is called once per group with
    [(group index, simulation events charged to it)] — the size of the
    union of the group's root cones under [Cone] (whatever the
    wavefront actually touched), the full node count under [Naive] —
    letting callers attribute fsim cost to individual fault classes
    (the {!Hft_obs.Ledger} hook).  It must not call the kernel.  Runs
    the {!detect_groups_tri} kernel with every unassigned source at
    [false]: with every source defined the three-valued check is
    exactly the two-valued one. *)
val detect_groups :
  ?on_group_events:(int -> int -> unit) ->
  ?strategy:strategy ->
  Netlist.t -> assignment:(int * bool) list -> observe:int list ->
  group list -> bool array

(** [detect_groups_tri] — three-valued variant of {!detect_groups}:
    sources without an assignment stay at X and detection requires a
    defined, differing good/faulty value at an observe node
    ({!Podem.check}'s criterion), so a positive answer holds for any
    value of the unassigned sources — the sound drop check on circuits
    with unknown initial state.  Under [Cone] a group runs only when
    some site is {e live}: a stem fault whose node has a defined good
    value other than its stuck value, or a pin fault whose fanin does.
    Skipping the others is exact, because the three-valued operators
    are monotone in the information order (X below 0 and 1): with no
    live site every faulty value refines its good value, so no observe
    node carries a defined difference.  A live group forces all its
    sites, dead ones included, seeds the wavefront with its roots and
    stops at its first detecting observe node. *)
val detect_groups_tri :
  ?on_group_events:(int -> int -> unit) ->
  ?strategy:strategy ->
  Netlist.t -> assignment:(int * bool) list -> observe:int list ->
  group list -> bool array

(** Coverage as a function of pattern count: returns
    [(patterns applied, cumulative coverage)] at each checkpoint.
    Patterns come from [next_pattern], called once per pattern per PI
    bit — this is how LFSR / accumulator generators drive the same
    machinery. *)
val coverage_curve :
  Netlist.t -> checkpoints:int list ->
  next_pattern:(unit -> bool array) -> Fault.t list -> (int * float) list

(** Sequential: [sequential nl ~stimuli faults] runs each fault over the
    cycle stimulus and compares PO streams against the good machine. *)
val sequential :
  Netlist.t -> stimuli:bool array array -> Fault.t list -> comb_result
