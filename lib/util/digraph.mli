(** Mutable directed graphs over integer vertices [0 .. n-1].

    This is the workhorse structure of the whole framework: CDFG
    dependency graphs, register S-graphs, gate-level flip-flop graphs and
    BIST conflict graphs are all instances.  Vertices are dense integer
    ids; parallel edges are collapsed; self-loops are allowed and tracked
    explicitly because partial-scan theory treats them specially. *)

type t

(** [create n] is an empty graph with vertices [0 .. n-1]. *)
val create : int -> t

(** Number of vertices. *)
val order : t -> int

(** Number of (distinct) edges, self-loops included. *)
val size : t -> int

(** [add_edge g u v] adds edge [u -> v].  Adding an existing edge is a
    no-op.  Raises [Invalid_argument] if [u] or [v] is out of range. *)
val add_edge : t -> int -> int -> unit

(** [of_edges n iter] is the graph that [create n] followed by one
    [add_edge] per edge [iter add] passes to [add] would build, with the
    same successor and predecessor lists in the same order.  Each
    duplicate test is O(1), at the cost of [n * n] bits of scratch. *)
val of_edges : int -> ((int -> int -> unit) -> unit) -> t

(** [remove_edge g u v] removes edge [u -> v] if present. *)
val remove_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool

(** Successors of a vertex, unordered. *)
val succ : t -> int -> int list

(** Predecessors of a vertex, unordered. *)
val pred : t -> int -> int list

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** [detach g v] removes every edge incident to [v], leaving the vertex
    in place (useful for feedback-vertex-set computations). *)
val detach : t -> int -> unit

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val edges : t -> (int * int) list

val copy : t -> t

(** Graph with every edge reversed. *)
val transpose : t -> t

val has_self_loop : t -> int -> bool
val self_loops : t -> int list

(** {1 Classical algorithms} *)

(** [scc g] is [(count, comp)] where [comp.(v)] is the strongly-connected
    component index of [v], components numbered [0 .. count-1] in reverse
    topological order of the condensation (Tarjan). *)
val scc : t -> int * int array

(** Vertices of each SCC, indexed by component id. *)
val scc_members : t -> int list array

(** [topological_sort g] is [Some order] when [g] is acyclic (self-loops
    count as cycles), [None] otherwise. *)
val topological_sort : t -> int list option

(** [is_acyclic ~ignore_self_loops g] *)
val is_acyclic : ?ignore_self_loops:bool -> t -> bool

(** [reachable g v] is the set of vertices reachable from [v] (including
    [v]) as a boolean array. *)
val reachable : t -> int -> bool array

(** [bfs_dist g v] is the array of BFS hop distances from [v];
    unreachable vertices get [max_int]. *)
val bfs_dist : t -> int -> int array

(** Longest path lengths (in edges) from sources, valid only on acyclic
    graphs; raises [Invalid_argument] on cyclic input. *)
val longest_path_from_sources : t -> int array

(** [cycles g ~max_len ~max_count] enumerates elementary cycles of length
    [<= max_len] (a self-loop has length 1), at most [max_count] of them,
    each as a vertex list with the smallest vertex first.  A bounded
    depth-first search from each start vertex in increasing order, over
    successors in increasing order, so the order is deterministic; it
    keeps no Johnson-style blocking sets.  Sorting the successor lists
    costs O(V + E) per call. *)
val cycles : t -> max_len:int -> max_count:int -> int list list

(** [count_cycles g ~min_len ~max_len ~max_count] is the number of
    cycles of length [>= min_len] among those [cycles g ~max_len
    ~max_count] lists, from the same search, building no list.  The cap
    counts every enumerated cycle, short ones included. *)
val count_cycles : t -> min_len:int -> max_len:int -> max_count:int -> int

(** DOT text of the graph; [name] labels vertices. *)
val to_dot : ?name:(int -> string) -> t -> string
