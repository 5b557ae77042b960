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

(** Attach pattern-store coordinates to the most recently registered
    test (called by the flow's [on_test], which runs synchronously after
    {!register_test}). *)
val annotate_last_test : first_row:int -> n_rows:int -> unit

val n_classes : unit -> int
val n_tests : unit -> int
val rows : unit -> row list
val tests : unit -> test list

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

(** The [k] most expensive rows, descending cost (class id tiebreak). *)
val top_expensive : ?rows:row list -> k:int -> unit -> row list

(** The "most expensive fault classes" table, heading included ([""]
    for no rows), and the same rows as a JSON list of row objects. *)
val expensive_table : row list -> string
val expensive_json : row list -> Hft_util.Json.t

val resolution_key : resolution -> string
val resolution_to_json : resolution -> Hft_util.Json.t

(** Inverse of {!resolution_to_json} ([None] on malformed input) —
    checkpoint restore and {!of_jsonl}. *)
val resolution_of_json : Hft_util.Json.t -> resolution option

(** The ledger-test id a detection-carrying resolution references. *)
val resolution_test : resolution -> int option

(** {1 Tapes} *)

(** One JSON object per line: every class row (keyed ["class"]) then
    every test (keyed ["test"]); [""] when empty.  The offline-report
    input format ([hft report --journal-in]). *)
val to_jsonl : unit -> string

(** An exported tape read back.  A journal tape carries no rows: its
    waterfall tallies its [Class_resolved] events (last write per class
    wins) and its tests are its [Test_generated] events. *)
type tape = {
  tp_source : string;  (** ["ledger"] or ["journal"] *)
  tp_rows : row list;  (** class order; [[]] for a journal tape *)
  tp_tests : test list;
  tp_waterfall : (string * (int * int)) list;
  tp_events : Hft_util.Json.t list;  (** [[]] for a ledger tape *)
}

(** Read a [--ledger-out] tape (the inverse of {!to_jsonl}: rows and
    tests equal those of the run that wrote it) or a [--journal-out]
    tape (the resolutions the bounded ring still held at export; never
    the never-targeted classes), told apart by the first object's
    ["type"] key.  [Error "line N: ..."] names the first unparseable or
    malformed line: torn JSON, a missing or mistyped field, an id out
    of sequence, an unknown outcome.  An empty tape is an error too. *)
val of_jsonl : string -> (tape, string) result

val reset : unit -> unit

(** [isolated f] runs [f] against a fresh, empty ledger and restores
    the previous rows and tests afterwards (even on exceptions). *)
val isolated : (unit -> 'a) -> 'a
