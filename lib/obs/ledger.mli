(** Fault-forensics ledger: one lifecycle record per collapsed fault
    class of a test campaign.

    The ATPG campaign ({!Hft_gate.Seq_atpg.campaign}, behind
    [Hft_scan.Full_scan] too) resolves each equivalence class exactly
    once (dropped / PODEM-detected / untestable / aborted), charges
    search and simulation cost to it, and returns one {!row} per class
    with its stats; the flow that feeds a pattern store keeps one
    {!test} per generated test.  Faults and members are display strings
    — the ledger knows nothing of netlists, so it lives in [Hft_obs]
    below every engine.  This module holds the row and test types, the
    views over rows and the [hft-ledger/1] tape codec and loader. *)

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
  lr_class : int;  (** the class index, dense from 0 in class order *)
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
          test has a place there. *)
  lt_vectors : bool array array;
      (** one PI vector per frame ([[||]] unless [lt_rows] is set) *)
  lt_scan : bool array;  (** the frame-0 scan load *)
}

(** [lr_fsim_events + lr_implications + lr_backtracks] — the ranking
    used by the "most expensive faults" report. *)
val cost : row -> int

(** {1 Views}

    One function per view, over rows, so a campaign that just ran and
    a {!tape} render through the same code. *)

(** Waterfall outcome keys in reporting order: [drop_detected],
    [podem_detected], [salvaged], [aborted], [untestable],
    [never_targeted]. *)
val outcome_keys : string list

(** Per-outcome [(classes, faults)] tallies, in {!outcome_keys} order;
    the class counts sum to the number of rows by construction. *)
val waterfall : row list -> (string * (int * int)) list

(** [(classes, faults)] summed over a waterfall's outcomes. *)
val totals : (string * (int * int)) list -> int * int

(** [{"classes", "faults", <outcome>: {"classes", "faults"}...}] for
    a waterfall. *)
val waterfall_json : (string * (int * int)) list -> Hft_util.Json.t

(** Every member's outcome key ({!resolution_key}), for comparing two
    runs over one fault list. *)
val outcomes : row list -> (string, string) Hashtbl.t

(** The outcome key is a detection: dropped, PODEM-detected or
    salvaged. *)
val is_detection : string -> bool

(** [contradicts k1 k2]: one outcome is a detection and the other a
    proof of untestability — a soundness bug in whichever engine is
    wrong. *)
val contradicts : string -> string -> bool

(** The [k] most expensive rows, descending cost (class id tiebreak). *)
val top_expensive : k:int -> row list -> row list

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

(** A tape read back. *)
type tape = {
  tp_meta : (string * Hft_util.Json.t) list;  (** the header's fingerprint *)
  tp_rows : row list;  (** class order *)
  tp_tests : test list;
  tp_waterfall : (string * (int * int)) list;
  tp_records : Hft_util.Json.t list;
      (** what a resume keeps: the records but the end marker, in file
          order *)
  tp_finished : bool;  (** the end marker was read: the campaign finished *)
}

(** Read an [hft-ledger/1] tape: its rows and tests equal those of the
    run that wrote it, as far as it committed.  A torn {e final} line is
    dropped; [Error "line N: ..."] names the first bad line anywhere
    else: a first object that is not the header, torn JSON, a missing
    or mistyped field, a test out of sequence, a class resolved twice,
    an end marker whose counts disagree (a lost line), an unknown
    outcome.  An empty tape is an error too.  Then an interrupted
    tape's final test rolls back with its drop rows, unless its commit
    row landed.  Resume ([Hft_core.Flow.test_campaign]), offline [hft
    report]/[hft profile] and [hft watch] read tapes through this one
    function. *)
val of_jsonl : string -> (tape, string) result
