(** The fault-forensics documents, [hft-report/1] and [hft-profile/1]:
    one function each, over a campaign that just ran or a campaign tape
    read back by {!Hft_obs.Ledger.of_jsonl}.  Both sources render the
    waterfall, the test count and the expensive classes alike. *)

type live = {
  bench : string;
  flow : Flow.flow_kind;
  guided : bool;
  jobs : int;
  resumed : string option;  (** the tape a resumed campaign continued *)
  campaign : Flow.campaign;
}

(** [Tape (file, tape)]: a tape and the path it was read from. *)
type source = Live of live | Tape of string * Hft_obs.Ledger.tape

(** Synthesise [g] under [flow] and run its test campaign at fixed knobs
    (backtrack limit 50, 3 frames, seed 2024, 64 patterns), with
    observability on and reset first.  The optional arguments are
    {!Flow.test_campaign}'s, [guided] and [jobs] defaulting to [true]
    and 1. *)
val run :
  ?guided:bool -> ?jobs:int -> ?tape:string -> ?resume:bool ->
  bench:string -> width:int -> sample:int -> Flow.flow_kind ->
  Hft_cdfg.Graph.t -> source

(** The waterfall, test count and [top] most expensive classes, plus the
    coverage, pattern, resume and guidance figures of a live campaign;
    text, or one JSON line. *)
val report : json:bool -> top:int -> source -> string

(** What a watcher saw at its first look at a tape: its clock then and
    the faults resolved by then. *)
type watcher

(** [watch w ~now file tape]: [hft watch]'s view of the campaign tape
    read from [file].  One status line — running or finished, the faults
    resolved and detected against the header's [n_faults], and the rate
    and ETA measured on the watcher's clock from [w] to [now] (none at
    the first look, [w = None]) — above {!report}'s text of the tape,
    top 5.  Returns the watcher for the next poll. *)
val watch :
  watcher option -> now:float -> string -> Hft_obs.Ledger.tape ->
  watcher * string

(** Per-span self time and per-worker telemetry of a live campaign (a
    tape records no phases: its [phases] are empty and its [parallel]
    null); then the same [top] classes as {!report}. *)
val profile : json:bool -> top:int -> source -> string
