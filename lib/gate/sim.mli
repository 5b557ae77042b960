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

(** {1 Event-driven work queue}

    The wavefront heap shared by PODEM's implication and the drop
    check: nodes pop in topological order ({!Netlist.topo_pos}), so a
    node whose fanins changed is evaluated once, after all of them
    settled.  A node is queued at most once per round; {!heap_reset}
    empties the heap and starts a new round. *)

type heap

val heap_create : Netlist.t -> heap
val heap_reset : heap -> unit
val heap_is_empty : heap -> bool

(** No-op when the node was already queued this round. *)
val heap_push : heap -> int -> unit

(** The queued node with the lowest topological position; the heap
    must not be empty. *)
val heap_pop : heap -> int

(** {1 Convenience} *)

(** Run [cycles] clocked cycles applying per-cycle PI vectors from
    [stimuli]; returns the PO value matrix (cycle, po index in
    [Netlist.pos] order).  DFFs start at [init] (default all-0). *)
val run_cycles :
  ?faults:Fault.t list -> ?init:bool list -> Netlist.t ->
  stimuli:bool array array -> bool array array
