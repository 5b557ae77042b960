(** The lint rule catalogue.

    Each rule inspects one layer of a synthesized design and reports
    {!Diagnostic.t}s under a stable code:

    - [HFT-L001] (error): nontrivial S-graph assignment loop with no
      scanned or BIST member — the survey's Fig. 1 problem; sequential
      ATPG cost grows exponentially with such loops (§3.1).
    - [HFT-L002] (warning): register whose RTL control or observe range
      is unbounded or unattainable (De Micheli ranges, §4.1).
    - [HFT-L003] (error): combinational cycle in the gate netlist.
    - [HFT-L004] (warning): dangling net — a node whose output drives
      nothing (unobservable logic).
    - [HFT-L005] (error): scan-chain integrity violation — the chain
      over the scan registers is malformed or does not shift.
    - [HFT-L006] (error): a register's BIST kind cannot support the
      role(s) its functional-unit blocks demand — e.g. pattern
      generator and response compactor for the same block without a
      concurrent BILBO (§5.1, Parulkar–Gupta–Breuer condition).
    - [HFT-L007] (warning): net harder to control than the SCOAP
      threshold.
    - [HFT-L008] (warning): net harder to observe than the SCOAP
      threshold.
    - [HFT-L009] (warning): statically uncontrollable net — the SCOAP
      fixpoint saturates (CC0 or CC1 infinite), so no input assignment
      produces that value; stuck-at faults needing it are
      combinationally untestable.
    - [HFT-L010] (warning): statically unobservable net — CO saturates,
      so no sensitizable path reaches an output; every fault on the net
      is combinationally unobservable.  (Dangling nets stay HFT-L004.)

    Rules are individually callable (the tests do) and composed by
    {!all}; expensive inputs (gate expansion, SCOAP, S-graph) are
    shared lazily through the context. *)

type config = {
  cc_threshold : int;      (** HFT-L007 fires above this worst-case CC *)
  co_threshold : int;      (** HFT-L008 fires above this CO *)
  rtl_threshold : int;     (** HFT-L002 also fires when a bounded
                               min-range exceeds this many cycles *)
  max_loop_len : int;      (** S-graph loop enumeration bound *)
  max_loop_count : int;
  max_per_rule : int;      (** per-rule finding cap; the excess is
                               summarised in one info diagnostic *)
}

val default : config

type ctx = {
  datapath : Hft_rtl.Datapath.t;
  graph : Hft_cdfg.Graph.t option;
  sgraph : Hft_rtl.Sgraph.t lazy_t;
  expand : Hft_gate.Expand.t lazy_t;  (** shared read-only expansion *)
  scoap : Hft_analysis.Scoap.t lazy_t;
}

val ctx : ?graph:Hft_cdfg.Graph.t -> Hft_rtl.Datapath.t -> ctx

(** Registers counting as direct test access points (scan or BIST). *)
val access_regs : Hft_rtl.Datapath.t -> int list

(** Combinational SCCs of a netlist (DFF fanins are sequential edges);
    the structural core of [HFT-L003], usable on bare netlists. *)
val comb_cycles : Hft_gate.Netlist.t -> int list list

(** Nets driving nothing (non-[Po], non-constant); core of [HFT-L004]. *)
val dangling_nets : Hft_gate.Netlist.t -> int list

(** Logic nets with a saturated CC0 or CC1; core of [HFT-L009]. *)
val uncontrollable_nets : Hft_gate.Netlist.t -> Hft_analysis.Scoap.t -> int list

(** Driven logic nets with a saturated CO; core of [HFT-L010]. *)
val unobservable_nets : Hft_gate.Netlist.t -> Hft_analysis.Scoap.t -> int list

val l001_assignment_loops : config -> ctx -> Diagnostic.t list
val l002_rtl_ranges : config -> ctx -> Diagnostic.t list
val l003_comb_cycles : config -> ctx -> Diagnostic.t list
val l004_dangling_nets : config -> ctx -> Diagnostic.t list
val l005_scan_chain : config -> ctx -> Diagnostic.t list
val l006_bist_roles : config -> ctx -> Diagnostic.t list
val l007_hard_control : config -> ctx -> Diagnostic.t list
val l008_hard_observe : config -> ctx -> Diagnostic.t list
val l009_uncontrollable : config -> ctx -> Diagnostic.t list
val l010_unobservable : config -> ctx -> Diagnostic.t list

(** Every rule, with the per-rule cap applied; unsorted. *)
val all : config -> ctx -> Diagnostic.t list
