(** The continuous fuzz campaign: a LinUCB contextual bandit
    ({!Linucb}) steering a portfolio of generator configurations at
    the differential oracles ({!Oracle}), with crash-only state
    ({!State}) and self-contained minimized reproducers ({!Repro}) in
    a corpus directory.

    Trials are deterministic functions of (campaign seed, trial
    number, committed history); the optional wall-clock duration
    budget only affects when the campaign stops, never what a
    committed trial contains.  [kill -9] at any point, then
    [c_resume = true]: the state tape's committed prefix replays the
    bandit bit-identically and the interrupted trial re-runs from
    scratch, reproducing the uninterrupted run's findings, arm choices
    and corpus exactly.

    One arm is the {e regression} arm: it replays the seed-4246 family
    against the PODEM canary ([propagation_fallbacks_enabled := false]
    for its ATPG differential), so every campaign proves the
    historical unsound-Untestable bug class would still be caught.
    Canary findings are expected and excluded from [y_real_findings]. *)

type cfg = {
  c_seed : int;
  c_trials : int;  (** total committed trials to reach (resume included) *)
  c_duration : float option;  (** optional wall-clock budget, seconds *)
  c_corpus : string;  (** corpus directory (created if missing) *)
  c_resume : bool;
  c_step_budget : int;  (** per-engine-attempt deadline, in steps *)
}

val default_cfg : cfg

(** Portfolio arm names, in arm-index order (the bandit's arm ids). *)
val arm_names : string list

(** The state tape's file name inside the corpus directory. *)
val state_file : string

type arm_stat = { as_name : string; as_pulls : int; as_reward_sum : float }

type summary = {
  y_trials_run : int;  (** trials committed by this invocation *)
  y_trials_total : int;
  y_new_findings : int;
  y_refound : int;
  y_escalations : int;
  y_corpus_size : int;  (** distinct finding classes on disk *)
  y_real_findings : int;  (** distinct non-canary classes — the alarms *)
  y_arms : arm_stat list;
  y_stop : string;  (** ["trials"] or ["duration"] *)
  y_state_path : string;
  y_bandit : Hft_util.Json.t;
      (** {!Linucb.state_json} — the resume bit-identity probe *)
}

val summary_json : summary -> Hft_util.Json.t

(** Run (or resume) a campaign.  Raises
    {!Hft_robust.Validation.Invalid} before any trial when the corpus
    is not a directory and cannot be made one, and on a resume mismatch
    (missing or foreign state file, different seed/portfolio). *)
val run : cfg -> summary
