(** Gate-level S-graph: flip-flop adjacency through combinational paths
    (Cheng–Agrawal / Lee–Reddy, survey §3.1).

    Vertex [i] is the [i]-th DFF in [Netlist.dffs] order; an edge
    [i -> j] means a purely combinational path from FF[i]'s output to
    FF[j]'s D input.  Conventional gate-level partial scan selects an
    MFVS of this graph. *)

type t = {
  graph : Hft_util.Digraph.t;
  dff_ids : int array;  (** vertex -> netlist node id *)
}

val of_netlist : Netlist.t -> t

(** Greedy MFVS scan selection (self-loops tolerated by default),
    returned as netlist DFF node ids. *)
val scan_selection : ?ignore_self_loops:bool -> t -> int list

(** Number of FF loops, self-loops included, counted by
    {!Hft_util.Digraph.count_cycles} (default: at most 4,096 loops of at
    most 12 FFs). *)
val n_loops : ?max_len:int -> ?max_count:int -> t -> int

(** Max combinational-hop depth from a PI-fed FF to a PO-feeding FF. *)
val sequential_depth : t -> int
