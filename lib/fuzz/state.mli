(** Crash-only campaign state ("hft-fuzz/1") on the shared
    {!Hft_robust.Checkpoint.Tape}.

    The record stream is a sequence of trial transactions: zero or
    more finding records followed by one trial commit marker (arm
    choice, reward, counts).  {!load} returns only committed
    transactions, rolling back a torn tail; the campaign re-runs the
    interrupted trial deterministically, so resume is bit-identical to
    the uninterrupted run.  The bandit is never serialized — it is
    rebuilt by replaying the committed (arm, reward) history. *)

type finding_rec = {
  s_trial : int;
  s_fingerprint : string;
  s_check : string;
  s_detail : string;
  s_file : string;  (** corpus-relative reproducer file name *)
  s_canary : bool;
}

type trial_rec = {
  t_trial : int;
  t_arm : int;
  t_reward : float;
  t_findings : int;
  t_escalations : int;
  t_circuit_seed : int;
}

type t = {
  meta : Hft_robust.Checkpoint.meta;
  trials : trial_rec list;  (** committed, in trial order *)
  findings : finding_rec list;
      (** committed, deduped by fingerprint, in append order *)
  records : Hft_util.Json.t list;  (** committed, in file order *)
}

val schema : string

type writer

(** Truncate/create [path] and write the header. *)
val create : path:string -> meta:Hft_robust.Checkpoint.meta -> writer

(** Chaos-checked, flushed appends: findings first, then the trial
    marker that commits them. *)
val append_finding : writer -> finding_rec -> unit

val append_trial : writer -> trial_rec -> unit
val close : writer -> unit

(** Parse the committed prefix of a campaign file; trailing findings
    with no trial commit are rolled back.  [Error] on unreadable
    files, schema mismatch or mid-file corruption. *)
val load : path:string -> (t, string) result

(** {!Hft_robust.Checkpoint.Tape.resume} at site [fuzz.resume]: check
    the run's [meta] against the file's, compact the file to
    [st.records] and reopen it for appending after the last committed
    trial. *)
val resume :
  path:string -> meta:Hft_robust.Checkpoint.meta -> t -> writer
