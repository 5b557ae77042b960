(** Fault-forensics ledger: one lifecycle record per collapsed fault
    class of a test campaign.

    The ATPG engines ({!Hft_gate.Seq_atpg}, [Hft_scan.Full_scan])
    register each equivalence class up front, resolve it exactly once
    (dropped / PODEM-detected / untestable / aborted), and charge
    search and simulation cost to it as the campaign runs.  Faults and
    members are display strings — the ledger knows nothing of netlists,
    so it lives in [Hft_obs] below every engine.

    Registration is gated on [!Config.enabled] and returns [-1] when
    disabled; every other entry point treats a negative handle as a
    no-op, so instrumented call sites need no guards. *)

type resolution =
  | Drop_detected of { test : int }
      (** Detected by fault-simulating an earlier test ({!test} is the
          ledger id of the dropping test) — never targeted by PODEM. *)
  | Podem_detected of { test : int; backtracks : int; frames : int }
      (** PODEM produced [test] for this class after [backtracks] total
          backtracks across its attempts, at [frames] time frames. *)
  | Salvaged of { test : int; patterns : int }
      (** Targeted PODEM failed (supervisor ladder exhausted), but one
          of [patterns] random patterns detected the class — the
          graceful-degradation outcome. *)
  | Proved_untestable of { frames : int }
      (** Search space exhausted at every frame count up to [frames]. *)
  | Aborted of { budget : int; frames : int; reason : string option }
      (** The backtrack budget [budget] tripped at every frame count up
          to [frames]; [reason] carries the supervisor's failure
          evidence ({!Hft_robust} taxonomy) when the abort came from a
          supervised failure rather than plain budget exhaustion. *)
  | Never_targeted  (** Campaign ended before this class was processed. *)

type row = {
  lr_class : int;  (** handle, dense from 0 in registration order *)
  lr_rep : string;  (** representative fault, display form *)
  lr_members : string list;  (** every sampled member, rep included *)
  lr_resolution : resolution;
  lr_fsim_events : int;  (** fault-simulation node events in its cones *)
  lr_implications : int;  (** PODEM implication passes spent on it *)
  lr_backtracks : int;  (** PODEM backtracks spent on it *)
  lr_guided_cuts : int;  (** branches pruned by static-analysis guidance *)
}

type test = {
  lt_id : int;
  lt_frames : int;
  lt_rows : (int * int) option;
      (** [(first_row, n_rows)] in the campaign's pattern store, when the
          flow recorded the mapping. *)
  lt_vectors : bool array array;
      (** one PI vector per frame ([[||]] unless [lt_rows] is set) *)
  lt_scan : bool array;  (** the frame-0 scan load *)
}

(** Returns the class handle, or [-1] when observability is disabled. *)
val register_class : rep:string -> members:string list -> int

(** Record the class outcome (last write wins; engines resolve once).
    Also journals a {!Hft_obs.Journal.event.Class_resolved} event, so
    exported tapes carry the waterfall and live consumers see
    resolution velocity. *)
val resolve : int -> resolution -> unit

(** Accumulate PODEM cost counters onto a class; all default to 0. *)
val charge :
  ?implications:int -> ?backtracks:int -> ?guided_cuts:int -> int -> unit

(** [charge_fsim_events hs evs] charges [evs.(i)] fault-simulation
    events to class [hs.(i)] for every [i] — a whole drop pass under one
    lock (one deferred write on a capturing domain).  The arrays must
    not change afterwards. *)
val charge_fsim_events : int array -> int array -> unit

(** Append a test to the campaign's test table, returning its id
    ([-1] when disabled). *)
val register_test : frames:int -> int

(** Attach the stimulus to the most recently registered test: its
    vectors (one per frame) and scan load, stored from pattern-store
    row [first_row] on (called by the flow's [on_test], which runs
    synchronously after {!register_test}). *)
val annotate_last_test :
  first_row:int -> vectors:bool array array -> scan:bool array -> unit

val n_classes : unit -> int
val n_tests : unit -> int
val rows : unit -> row list

(** The current row of a live handle. *)
val row : int -> row

val tests : unit -> test list

(** The current record of a live test id. *)
val test : int -> test

(** [restore h row] gives handle [h] the resolution {e and} the charges
    of [row], a row read back from a tape (resume).  Journals a
    {!Hft_obs.Journal.event.Class_resolved} event like {!resolve}. *)
val restore : int -> row -> unit

(** [lr_fsim_events + lr_implications + lr_backtracks] — the ranking
    used by the "most expensive faults" report. *)
val cost : row -> int

(** {1 Views}

    One function per view, over rows ([?rows] defaults to {!rows}), so
    a live campaign and a {!tape} render through the same code. *)

(** Waterfall outcome keys in reporting order: [drop_detected],
    [podem_detected], [salvaged], [aborted], [untestable],
    [never_targeted]. *)
val outcome_keys : string list

(** Per-outcome [(classes, faults)] tallies, in {!outcome_keys} order;
    the class counts sum to the number of rows by construction. *)
val waterfall : ?rows:row list -> unit -> (string * (int * int)) list

(** [(classes, faults)] summed over a waterfall's outcomes. *)
val totals : (string * (int * int)) list -> int * int

(** [{"classes", "faults", <outcome>: {"classes", "faults"}...}] for
    a waterfall (default [waterfall ()]). *)
val waterfall_json :
  ?waterfall:(string * (int * int)) list -> unit -> Hft_util.Json.t

(** Every member's outcome key ({!resolution_key}), for comparing two
    runs over one fault list. *)
val outcomes : ?rows:row list -> unit -> (string, string) Hashtbl.t

(** [contradicts k1 k2]: one outcome is a detection (dropped,
    PODEM-detected or salvaged) and the other a proof of
    untestability — a soundness bug in whichever engine is wrong. *)
val contradicts : string -> string -> bool

(** The [k] most expensive rows, descending cost (class id tiebreak). *)
val top_expensive : ?rows:row list -> k:int -> unit -> row list

(** The "most expensive fault classes" table, heading included ([""]
    for no rows), and the same rows as a JSON list of row objects. *)
val expensive_table : row list -> string
val expensive_json : row list -> Hft_util.Json.t

val resolution_key : resolution -> string

(** The ledger-test id a detection-carrying resolution references. *)
val resolution_test : resolution -> int option

(** {1 Tapes}

    A campaign tape ([hft-ledger/1], written by
    [Hft_core.Flow.test_campaign] through [Hft_robust.Checkpoint.Tape]
    as the campaign commits) is a header line carrying the campaign
    fingerprint, then one {!record} per line: a test transaction is the
    test (with its stimulus), the rows of the classes it dropped, then
    the [podem_detected] or [salvaged] row that commits it; rows that
    need no test stand alone.  A row is written when its class resolves,
    charges complete.  The end marker follows the last row.  In the
    shared crash-only protocol every record commits except a test and a
    [drop_detected] row. *)

val schema : string

type record =
  | Class of row
  | Test of test
  | End of { classes : int; tests : int }

val record_to_json : record -> Hft_util.Json.t

(** A tape read back.  A journal tape carries no rows: its waterfall
    tallies its [Class_resolved] events (last write per class wins) and
    its tests are its [Test_generated] events. *)
type tape = {
  tp_source : string;  (** ["ledger"] or ["journal"] *)
  tp_meta : (string * Hft_util.Json.t) list;
      (** the ledger tape's fingerprint; [[]] for a journal tape *)
  tp_rows : row list;  (** class order; [[]] for a journal tape *)
  tp_tests : test list;
  tp_waterfall : (string * (int * int)) list;
  tp_records : Hft_util.Json.t list;
      (** what a resume keeps: the records but the end marker, in file
          order; [[]] for a journal tape *)
  tp_events : Hft_util.Json.t list;  (** [[]] for a ledger tape *)
}

(** Read an [hft-ledger/1] tape (its rows and tests equal those of the
    run that wrote it, as far as it committed) or a [--journal-out]
    tape (the resolutions the bounded ring still held at export; never
    the never-targeted classes), told apart by the first object.  A
    torn {e final} line is dropped; [Error "line N: ..."] names the
    first bad line anywhere else: torn JSON, a missing or mistyped
    field, a test out of sequence, a class resolved twice, an end
    marker whose counts disagree (a lost line), an unknown outcome.
    An empty tape is an error too.  Then an interrupted tape's final
    test rolls back with its drop rows, unless its commit row landed.
    Resume ([Hft_core.Flow.test_campaign]) and offline [hft report]/[hft
    profile] read tapes through this one function. *)
val of_jsonl : string -> (tape, string) result

val reset : unit -> unit

(** [isolated f] runs [f] against a fresh, empty ledger and restores
    the previous rows and tests afterwards (even on exceptions). *)
val isolated : (unit -> 'a) -> 'a
