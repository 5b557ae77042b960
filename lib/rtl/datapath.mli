(** Register-transfer-level data paths.

    A data path is the structural result of high-level synthesis:
    registers, functional units, multiplexers (implicit: a functional
    unit port or register with several sources gets one), input/output
    ports, plus the {e transfer table} — which micro-operations happen in
    each control step.  The transfer table is what the {!Controller}
    decodes, and the structure is what {!Sgraph} and the gate-level
    expansion consume. *)

type reg_kind =
  | Plain
  | Scan               (** serial scan register (full/partial scan) *)
  | Transparent_scan   (** transparent scan on a non-register node *)
  | Tpgr               (** BIST pseudorandom test pattern generator *)
  | Sr                 (** BIST signature register *)
  | Bilbo              (** TPGR or SR (one role per session) *)
  | Cbilbo             (** concurrent BILBO: both roles at once *)

type reg = {
  r_id : int;
  r_name : string;
  mutable r_kind : reg_kind;
  r_vars : int list;   (** CDFG variables stored in this register *)
}

type fu = {
  f_id : int;
  f_name : string;
  f_class : Hft_cdfg.Op.fu_class;
  f_ops : int list;    (** CDFG operations bound to this unit *)
}

(** A data source reaching a functional-unit port or a register input. *)
type src =
  | Sreg of int        (** register id *)
  | Sport of int       (** primary input port index *)
  | Sconst of int      (** hard-wired constant *)

type micro =
  | Exec of { op : int; kind : Hft_cdfg.Op.kind; fu : int; srcs : src array; dst : int }
      (** run CDFG op [op] on [fu], result latched into register [dst] *)
  | Move of { src : src; dst : int }
      (** direct register transfer / input load *)

type t = {
  name : string;
  width : int;
  regs : reg array;
  fus : fu array;
  inports : string array;
  outports : (string * int) array;  (** (name, source register) *)
  transfers : (int * micro) list;   (** (control step, micro-op); step 0
                                        holds initial input loads *)
  n_steps : int;
}

(** {1 Structural queries} *)

val n_regs : t -> int
val n_fus : t -> int

(** Registers directly feeding some input port of [fu] (through its
    muxes), i.e. all [Sreg] sources over every step. *)
val fu_input_regs : t -> int -> int list

(** Registers latched from [fu]'s output. *)
val fu_output_regs : t -> int -> int list

(** Possible sources of each port of [fu] — the port's mux fan-in. *)
val fu_port_sources : t -> int -> src list array

(** Mux fan-in of a register input. *)
val reg_sources : t -> int -> src list

(** Register holding CDFG variable [v], if registered. *)
val reg_of_var : t -> int -> int option

(** FU executing CDFG op [o], if any ([Move]s have none). *)
val fu_of_op : t -> int -> int option

(** Registers connected to primary input ports / output ports
    (the survey's "I/O registers", Lee et al. §3.2). *)
val input_registers : t -> int list
val output_registers : t -> int list

(** Self-adjacent registers: [r] both feeds an FU and latches that FU's
    result (survey §5.1). *)
val self_adjacent_regs : t -> int list

(** Count multiplexer inputs (area: every source beyond the first on a
    port or register input costs one mux leg). *)
val mux_legs : t -> int

(** {1 Simulation} *)

(** Execute the transfer table for one iteration.  [state] presets
    register contents by register name (default 0); returns
    [(outputs by name, final register contents by register id)].
    Used to check synthesised data paths against [Graph.run]. *)
val simulate :
  t -> inputs:(string * int) list -> ?state:(string * int) list -> unit ->
  (string * int) list * (int * int) list

(** {1 Validation and display} *)

(** Structural invariants: transfer targets exist, each register is
    written at most once per step boundary, each FU runs at most one op
    per step, sources are defined.  Raises [Invalid_argument]. *)
val validate : t -> unit

val reg_kind_to_string : reg_kind -> string
val pp : t -> string
val to_dot : t -> string
