(** Logic simulation: pattern-parallel two-valued and scalar
    three-valued, both with optional fault injection. *)

(** {1 Pattern-parallel (bit-sliced) two-valued simulation} *)

type pstate = {
  values : Hft_util.Bitvec.t array; (** per node, one bit per pattern *)
  n_patterns : int;
}

val pcreate : Netlist.t -> n_patterns:int -> pstate

(** Assign a PI's value across patterns. *)
val pset_pi : pstate -> int -> Hft_util.Bitvec.t -> unit

(** Set a DFF's current state across patterns. *)
val pset_state : pstate -> int -> Hft_util.Bitvec.t -> unit

(** Evaluate all combinational nodes in order; [faults] are forced
    during evaluation (stem faults force the node's value; pin faults
    force the value seen by that gate input). *)
val peval : ?faults:Fault.t list -> Netlist.t -> pstate -> unit

(** [peval_cone ?faults nl st cone] is {!peval}'s node step over [cone]
    alone, in array order (a {!Netlist.fanout_cone} or
    {!Netlist.fanout_cone_union} is levelized): nodes outside it keep
    the values [st] holds. *)
val peval_cone :
  ?faults:Fault.t list -> Netlist.t -> pstate -> int array -> unit

(** Clock edge: every DFF samples its D input ([peval] must have run). *)
val pclock : ?faults:Fault.t list -> Netlist.t -> pstate -> unit

val pvalue : pstate -> int -> Hft_util.Bitvec.t

(** {1 Scalar three-valued simulation (values 0/1/2=X)} *)

type tstate = int array

val tcreate : Netlist.t -> tstate

(** Evaluate combinationally from PI/DFF/Const values already in the
    state; X-propagation; [faults] force 0/1 at their sites. *)
val teval : ?faults:Fault.t list -> Netlist.t -> tstate -> unit

(** [teval_fn ?faults nl] pre-resolves the fault table and netlist
    arrays once, returning a single-node evaluator — for event-driven
    callers that re-evaluate individual nodes many times.  On a source
    node it only applies stem forcing (the caller owns source values). *)
val teval_fn : ?faults:Fault.t list -> Netlist.t -> tstate -> int -> unit

(** [teval_node kinds fanins st v] is the fault-free single-node
    evaluator of {!teval_fn}, called directly on the netlist's
    {!Netlist.raw_kinds} and {!Netlist.raw_fanins}. *)
val teval_node : Netlist.kind array -> int array array -> tstate -> int -> unit

(** {1 Event-driven work queue}

    The wavefront queue shared by PODEM's implication, the drop check
    and [Hft_analysis.Implications.compute]: a bitmap over topological
    positions ({!Netlist.topo_pos}) whose pops take the lowest set
    position, so a node whose fanins changed is evaluated once, after
    all of them settled, in the order a binary heap keyed on the
    position would pop it.  A node is queued at most once per round;
    {!heap_reset} empties the queue, set bits a caller left behind
    included, and starts a new round.  A push may sit below the last
    pop (a [Dff] consumer comes before the gates feeding it); it pops
    next. *)

type heap

val heap_create : Netlist.t -> heap

(** [heap_bind h nl] empties [h] and re-keys it on [nl]'s topological
    positions, growing it when [nl] has more nodes than it holds: one
    queue can serve netlists of any size in turn.  O(1) apart from that
    growth: both position maps are [nl]'s own caches
    ({!Netlist.topo_pos}, {!Netlist.topo_order}). *)
val heap_bind : heap -> Netlist.t -> unit

val heap_reset : heap -> unit
val heap_is_empty : heap -> bool

(** No-op when the node was already queued this round. *)
val heap_push : heap -> int -> unit

(** The queued node with the lowest topological position; the queue
    must not be empty. *)
val heap_pop : heap -> int

(** {1 Convenience} *)

(** Run [cycles] clocked cycles applying per-cycle PI vectors from
    [stimuli]; returns the PO value matrix (cycle, po index in
    [Netlist.pos] order).  DFFs start at [init] (default all-0). *)
val run_cycles :
  ?faults:Fault.t list -> ?init:bool list -> Netlist.t ->
  stimuli:bool array array -> bool array array
