(** Gate-level sequential netlists.

    Nodes are dense integer ids.  A [Dff]'s value is its current state;
    its single fanin is the D input sampled at each clock edge.  [Po]
    nodes are observation points with one fanin.  [Mux2] fanins are
    [\[| select; a; b |\]] with [select = 1] choosing [b]. *)

type kind =
  | Pi
  | Po
  | Dff
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux2

type t

val create : ?name:string -> unit -> t

(** [add nl kind fanins] appends a node and returns its id.  Arity is
    checked ([Pi]/[Const*]: 0, [Po]/[Buf]/[Not]/[Dff]: 1, [Mux2]: 3,
    binary gates: 2). *)
val add : t -> ?name:string -> kind -> int array -> int

val n_nodes : t -> int

(** Structural copy sharing nothing mutable with the original.  Node
    ids are positions, so ids, fault sites and observe lists transfer
    verbatim; derived caches (fanout/order/cones) start empty and the
    {!version} carries over.  Used for per-domain ATPG workspaces. *)
val copy : t -> t

(** Mutation counter, bumped by {!add} and {!set_fanin} — lets external
    caches keyed on a netlist notice structural changes. *)
val version : t -> int

val kind : t -> int -> kind
val fanin : t -> int -> int array

(**/**)

(** Raw backing arrays (may be longer than [n_nodes]; indices beyond it
    are garbage).  For the simulator hot loops only — read-only. *)
val raw_kinds : t -> kind array

val raw_fanins : t -> int array array

(**/**)
val node_name : t -> int -> string
val circuit_name : t -> string

(** Fanout lists (computed on first use, cached; do not [add] after). *)
val fanout : t -> int -> int list

(** Every node's {!fanout} as an array, same order (cached like
    {!fanout}, reset by {!add}, {!set_fanin} and {!copy}).  For hot
    loops that walk fanouts without allocating — read-only. *)
val fanouts : t -> int array array

(** [set_fanin nl node pin new_src] rewires one input (used by scan
    insertion and expansion to close forward references); invalidates
    the fanout/order caches. *)
val set_fanin : t -> int -> int -> int -> unit

val pis : t -> int list
val pos : t -> int list
val dffs : t -> int list

(** Gate count excluding [Pi]/[Po]/[Const] bookkeeping nodes. *)
val n_gates : t -> int

(** Combinational evaluation order, the node at each topological
    position: every non-[Dff] node appears after its fanins, with
    [Dff]s treated as sources (memoized; invalidated by
    [add]/[set_fanin]; read-only).  Raises
    [Hft_robust.Validation.Invalid] on a combinational cycle. *)
val topo_order : t -> int array

(** [topo_pos nl] maps node id to its position in {!topo_order}, its
    inverse (memoized and invalidated with it). *)
val topo_pos : t -> int array

(** [fanout_cone nl v] is the combinational fanout cone of [v] — every
    node whose single-pass evaluation can change when [v]'s value
    changes — in levelized ({!topo_order}) order, [v] included.  [Dff]
    consumers terminate the walk: one combinational pass never updates
    flip-flop state.  Memoized per node; do not mutate the returned
    array.  The memo is built with a visit-stamp array held by the
    netlist, so like every derived cache here it assumes one netlist
    per domain ({!copy} gives each domain its own). *)
val fanout_cone : t -> int -> int array

(** [mark_cone nl marks stamp root] sets [marks.(v) <- stamp] on every
    node [v] of [root]'s {!fanout_cone}, without entering nodes that
    already carry [stamp]: marking several roots under one stamp marks
    the union of their cones, each node once, in time linear in that
    union.  [marks] needs {!n_nodes} slots; nothing else is allocated.
    Raises [Invalid_argument] when [root] is not a node. *)
val mark_cone : t -> int array -> int -> int -> unit

(** Topologically sorted union of the roots' fanout cones
    (deduplicated).  Read-only: for a single root it is the memoized
    {!fanout_cone} array itself. *)
val fanout_cone_union : t -> int list -> int array

(** Non-allocating 3-valued primitives; values are [0], [1], [2]
    (= X). *)
val tri_not : int -> int
val tri_and : int -> int -> int
val tri_or : int -> int -> int
val tri_xor : int -> int -> int
val tri_mux : int -> int -> int -> int

val validate : t -> unit
val stats : t -> string
