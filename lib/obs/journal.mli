(** Structured event journal: a bounded ring of typed engine events.

    Recording is a no-op while [!Config.enabled] is false; when enabled,
    each {!record} stamps the event with {!Clock.now} and a global
    sequence number.  The ring holds the most recent {!capacity} events
    — older ones are overwritten and counted by {!dropped} — and exports
    as JSONL (one object per line) through {!Hft_util.Json}. *)

type event =
  | Phase_begin of { name : string }
      (** A span opened (emitted by {!Span.with_}). *)
  | Phase_end of { name : string; elapsed : float }
      (** A span closed; [elapsed] in seconds. *)
  | Collapse of { faults : int; classes : int }
      (** Fault-collapse summary: universe size and class count. *)
  | Atpg_target of { cls : int; rep : string; frames : int }
      (** PODEM is about to target ledger class [cls] at [frames]. *)
  | Podem_result of { cls : int; outcome : string; frames : int;
                      backtracks : int }
      (** One PODEM attempt finished ([outcome]: test/untestable/aborted). *)
  | Static_untestable of { cls : int; frames : int }
      (** The static analysis proved class [cls] untestable — no search
          ran for it at [frames] time frames. *)
  | Backtrack of { backtracks : int; decisions : int; implications : int }
      (** Per-PODEM-call effort summary (emitted when backtracks > 0). *)
  | Test_generated of { test : int; frames : int }
      (** A test entered the ledger's test table under id [test]. *)
  | Fault_dropped of { cls : int; test : int }
      (** Ledger class [cls] detected by fault-simulating test [test]. *)
  | Class_resolved of { cls : int; outcome : string; faults : int }
      (** Ledger class [cls] reached a final {!Hft_obs.Ledger.resolution}
          ([outcome] is its {!Hft_obs.Ledger.resolution_key}; [faults]
          counts the class members).  Emitted by [Ledger.resolve], so an
          exported journal replays the coverage waterfall offline; a
          class resolved twice appears twice and the last event wins. *)
  | Fsim_run of { faults : int; detected : int; patterns : int; events : int }
      (** One fault-simulation call's totals. *)
  | Retry of { site : string; attempt : int; budget : int }
      (** The supervisor's retry ladder re-ran a failed engine call with
          an escalated [budget]. *)
  | Degraded of { site : string; action : string }
      (** The ladder was exhausted and the caller fell back ([action]:
          salvage / drop-pass-skipped / uncollapsed / ...). *)
  | Checkpoint of { classes : int; tests : int }
      (** A record was appended to a crash-only tape: a test to a
          campaign tape (rows and tests so far) or a trial to the fuzz
          state (trials and findings so far). *)
  | Shard_stats of { jobs : int; waves : int; tasks : int; steals : int;
                     spec_hits : int; spec_misses : int; inline : int;
                     utilization : float }
      (** Scheduler summary of one parallel campaign ({!Hft_par.Stats}):
          pool size, waves run, tasks dispatched, steals, speculation
          hits / misses / inline recomputes, and Σbusy / (jobs × wall).
          Recorded once per campaign by the flow — its content varies
          with the jobs count, so it is {e not} part of the engines'
          bit-identity surface. *)
  | Note of { key : string; value : string }  (** Free-form breadcrumb. *)

type entry = { e_seq : int; e_time : float; e_domain : int; e_event : event }
(** [e_domain] is the {!Domain_id} of the domain that performed the
    ring store — 0 for everything the orchestrator records, including
    worker writes deferred onto capture tapes and replayed at commit
    time (so committed tapes stay bit-identical across jobs counts). *)

val record : event -> unit

(** Synchronous tap called after every recorded entry (only while
    enabled).  Consumers ({!Hft_obs.Progress}) install themselves here;
    the default is a no-op.  Replace, don't chain — there is one live
    consumer at a time and {!Hft_obs.Progress.stop} restores the
    no-op. *)
val on_record : (entry -> unit) ref

(** Entries still in the ring, oldest first. *)
val entries : unit -> entry list

(** Total events recorded since the last [reset] (including
    overwritten ones). *)
val recorded : unit -> int

(** Events overwritten because the ring was full. *)
val dropped : unit -> int

val capacity : unit -> int

(** Replace the ring with an empty one of size [n] (default 4096).
    Raises [Invalid_argument] when [n < 1]. *)
val set_capacity : int -> unit

val reset : unit -> unit

(** [isolated f] runs [f] against a fresh ring of the current capacity
    with the {!on_record} tap suspended, restoring both afterwards
    (even on exceptions). *)
val isolated : (unit -> 'a) -> 'a

(** The snake_case tag exported as the ["type"] field. *)
val event_type : event -> string

val entry_to_json : entry -> Hft_util.Json.t

(** One JSON object per line, oldest first; [""] when empty. *)
val to_jsonl : unit -> string
