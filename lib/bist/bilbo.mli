(** BILBO-style BIST planning on a data path (Könemann–Mucha–Zwiehoff,
    survey §5).

    Every functional unit is a pseudorandom logic block: its input
    registers must act as TPGRs and one output register as an SR.  A
    register required in both roles {e for the same block} needs a
    concurrent BILBO (CBILBO); one required in different roles for
    different blocks can be an ordinary BILBO (one role per session). *)

type role = R_none | R_tpgr | R_sr | R_bilbo | R_cbilbo

type plan = {
  roles : role array;             (** per register id *)
  sr_of_fu : int array;           (** per fu id: chosen SR register *)
  n_tpgr : int;
  n_sr : int;
  n_bilbo : int;
  n_cbilbo : int;
}

(** Compute a role plan.  SR choice per block prefers an output
    register that is not among the block's inputs; when every output is
    also an input the block forces a CBILBO (the exact condition of
    Parulkar–Gupta–Breuer). *)
val plan : Hft_rtl.Datapath.t -> plan

(** Write the plan's roles into the data path's register kinds (for
    area accounting). *)
val annotate : Hft_rtl.Datapath.t -> plan -> unit

(** Area overhead of the plan versus all-plain registers, under the
    default cost table. *)
val area_overhead : Hft_rtl.Datapath.t -> plan -> float
