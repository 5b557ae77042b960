(** Partial scan with transparent scan cells on non-register nodes
    (Steensma–Catthoor–De Man ITC'91; Vishakantaiah et al.; survey §4.1).

    A data-path loop can be broken either by converting one of its
    {e registers} to a scan register, or by placing a {e transparent
    scan} cell on a functional unit's output — a register that is
    bypassed in normal mode, so it costs no functional cycle, and one
    such cell cuts {e every} loop routed through that unit.  Mixing the
    two typically needs far fewer cells than register scan alone. *)

type selection = {
  scan_regs : int list;   (** registers converted to scan *)
  tscan_fus : int list;   (** units given a transparent output cell *)
}

(** Every non-self S-graph loop contains a scanned register or crosses a
    transparent-scanned unit? *)
val covered : Sgraph.t -> selection -> bool

(** Greedy cover: at each step take the register or unit breaking the
    most uncovered loops (ties: units first — one cell, many loops). *)
val select : Sgraph.t -> selection

(** Cells used by a selection (scan registers + transparent cells). *)
val n_cells : selection -> int
