(** RTL → gate expansion.

    Turns a {!Hft_rtl.Datapath} into a sequential gate netlist:

    - each register becomes [width] DFFs guarded by an enable
      ([D = enable ? new : Q]);
    - register-input and FU-port multiplexers become one-hot AND–OR mux
      trees whose leg-select lines are primary inputs;
    - functional units become ripple-carry adders/subtractors, array
      multipliers, signed comparators and bitwise logic, with one-hot
      function-select lines when an instance executes several op kinds;
    - primary input ports and all control lines are PIs; output-register
      bits are POs.

    Making control lines primary inputs reflects the survey's standard
    assumption (§3.5) that the controller is testable separately and its
    outputs are fully controllable in test mode; the Dey–Gangaram–
    Potkonjak experiment (E11) revisits exactly this assumption by
    restricting those lines to controller-reachable vectors.

    A provenance map links registers and ports to node ids so scan and
    BIST instrumentation can be applied at gate level. *)

(** What a control PI means, so drivers need not parse names. *)
type control_role =
  | Enable of int                (** register enable *)
  | Reg_leg of int * int         (** (register, write-mux leg) one-hot *)
  | Fu_leg of int * int * int    (** (fu, port, mux leg) one-hot *)
  | Fn_sel of int * Hft_cdfg.Op.kind (** (fu, kind) function select *)

type t = {
  netlist : Netlist.t;
  width : int;
  reg_q : int array array;          (** register id -> Q bit nodes (DFFs) *)
  reg_d_src : int array array;      (** register id -> pre-mux D value nodes *)
  data_pis : (string * int array) list; (** inport name -> PI bit nodes *)
  control_pis : (string * int) list;    (** control line name -> PI node *)
  controls : (control_role * int) list; (** role -> PI node *)
  outputs : (string * int array) list;  (** outport name -> PO nodes *)
}

val of_datapath : Hft_rtl.Datapath.t -> t

(** The Q flip-flops of registers [regs], register by register. *)
val reg_flops : t -> int list -> int list

(** Control roles active during a given step of the functional
    schedule — the per-state control vector, role-typed.  Used both by
    {!run_iteration} and by the controller synthesis in
    {!Ctrl_expand}. *)
val roles_for_step : Hft_rtl.Datapath.t -> int -> control_role list

(** Drive the expanded netlist through one full iteration (steps
    0..n_steps) with the functional control sequence derived from the
    transfer table, then read the output registers.  [state] presets
    registers by name.  This is the gate-level twin of
    [Datapath.simulate] and is checked against it in the test suite. *)
val run_iteration :
  Hft_rtl.Datapath.t -> t -> inputs:(string * int) list ->
  ?state:(string * int) list -> unit -> (string * int) list

(** Standalone combinational expansion of one functional-unit class
    executing the given op kinds: returns the netlist plus operand PI
    bits, function-select PI names, and result PO bits.  Used for module
    tests and BIST logic-block experiments. *)
type block = {
  b_netlist : Netlist.t;
  b_a : int array;
  b_b : int array;
  b_sel : (string * int) list;
  b_out : int array;
}

val comb_block : width:int -> Hft_cdfg.Op.kind list -> block

(** Reference check helper: evaluate [block] on integer operands with
    the [i]-th kind selected (one-hot), returning the result word. *)
val eval_block : block -> kind_index:int -> a:int -> b:int -> int
