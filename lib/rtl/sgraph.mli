(** Register-adjacency S-graphs of a data path.

    Nodes are registers; there is an edge [r1 -> r2] when a strictly
    combinational path (through muxes and a functional unit, or a direct
    move path) leads from [r1]'s output to [r2]'s input.  Cycle structure
    and sequential depth of this graph are the empirical predictors of
    sequential-ATPG cost the survey builds on (§3.1): test generation
    complexity grows exponentially with loop length and linearly with
    depth. *)

type t = {
  graph : Hft_util.Digraph.t;  (** vertex = register id *)
  datapath : Datapath.t;
}

(** Structural S-graph: an edge exists when the mux fan-ins allow the
    connection in {e some} control configuration.  Edges go in through
    {!Hft_util.Digraph.of_edges}, functional-unit paths first (by unit,
    then input register, then output register), then direct moves (by
    destination, then source), so every successor and predecessor list
    has a fixed order, which {!scan_selection} depends on. *)
val of_datapath : Datapath.t -> t

(** Loops of the S-graph, each a register list, smallest register first
    ({!Hft_util.Digraph.cycles}; by default at most 4,096 loops of at
    most 16 registers).  Self-loops are length-1 entries. *)
val loops : ?max_len:int -> ?max_count:int -> t -> int list list

(** Loops other than self-loops. *)
val nontrivial_loops : ?max_len:int -> ?max_count:int -> t -> int list list

(** [List.length (nontrivial_loops s)], counted without building the
    loops; the self-loops still count toward the 4,096 cap. *)
val n_nontrivial_loops : t -> int

val self_loop_regs : t -> int list

(** [is_loop_free ~ignore_self_loops s ~scanned] — acyclic once the
    scanned registers are removed? *)
val is_loop_free : ?ignore_self_loops:bool -> t -> scanned:int list -> bool

(** Scan registers needed to break all loops (greedy MFVS, self-loops
    tolerated by default as in gate-level partial scan). *)
val scan_selection : ?ignore_self_loops:bool -> t -> int list

(** Sequential depth: the longest shortest-path distance from any input
    register to any output register once scanned registers are treated
    as pseudo-primary I/O; [None] when some output register is
    unreachable. *)
val sequential_depth : t -> scanned:int list -> int option

(** Maximum over registers of the distance {e from} the nearest
    controllable register (input or scanned) and {e to} the nearest
    observable one — the per-register depth profile used by testable
    register assignment. *)
val depth_profile : t -> scanned:int list -> (int * int * int) list
(** [(reg, control_depth, observe_depth)]; [max_int/2] when unreachable. *)
