(** Moore-machine controllers decoded from a data path's transfer table.

    One state per control step (plus the initial load state 0).  Each
    state drives a {e control vector}: one select field per multiplexed
    resource and one enable bit per register.  The controller is the
    substrate of the controller-DFT analysis of Dey–Gangaram–Potkonjak
    (survey §3.5): sequential ATPG sees only the vectors listed here, so
    value combinations never produced become hard conflicts. *)

type signal =
  | Reg_enable of int          (** register id *)
  | Fu_select of int * int     (** (fu id, port): mux select field *)
  | Reg_select of int          (** register-input mux select field *)

(** A control vector: value of every signal in one state.  Select fields
    are small integers (mux leg index); enables are 0/1. *)
type vector = (signal * int) list

type t = {
  n_states : int;              (** = n_steps + 1, state 0 loads inputs *)
  signals : signal list;       (** every controlled signal, fixed order *)
  vectors : vector array;      (** one per state *)
  test_vectors : vector list;  (** extra vectors reachable in test mode *)
}

(** Decode a controller from the data path. *)
val of_datapath : Datapath.t -> t

(** Value of [signal] in [vector] (0 when absent: inactive default). *)
val value : vector -> signal -> int

(** All (signal, value) pairs that appear in no functional vector —
    combinations sequential ATPG cannot justify without test vectors. *)
val unreachable_values : t -> (signal * int) list

(** Pairwise implications across functional+test vectors: [(s1,v1)]
    implies [(s2,v2)] when every vector giving [s1 = v1] also gives
    [s2 = v2] (and [s1 = v1] occurs at least once).  Trivial
    self-implications are excluded.  These implications are the ATPG
    conflict source the controller-DFT technique removes. *)
val implications : t -> ((signal * int) * (signal * int)) list

(** [add_test_vectors c vs] extends the test-mode vector set. *)
val add_test_vectors : t -> vector list -> t

(** Number of distinct full control vectors (functional + test). *)
val n_vectors : t -> int
