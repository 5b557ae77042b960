(* Crash-only campaign state ("hft-fuzz/1") on the shared crash-only
   tape ([Hft_robust.Checkpoint.Tape]).

   The record stream is a sequence of trial transactions: zero or more
   [{"kind":"finding", ...}] lines followed by exactly one
   [{"kind":"trial", ...}] commit marker carrying the arm choice, the
   reward and the counts.  Every line is flushed (and chaos-checked)
   before the next, so a [kill -9] leaves a loadable prefix whose last
   transaction may be uncommitted; {!load} rolls those trailing finding
   lines back, and the campaign re-runs the interrupted trial
   deterministically — regenerating the same findings and the same
   reward, which is what makes resume bit-identical to the
   uninterrupted run.  The bandit is not serialized at all: it is
   rebuilt by replaying the committed (arm, reward) history through the
   same fixed-order float arithmetic. *)

open Hft_util

let schema = "hft-fuzz/1"

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
  findings : finding_rec list;  (** committed, deduped, in append order *)
  records : Json.t list;  (** committed, in file order *)
}

let finding_json f =
  Json.Obj
    [ ("kind", Json.String "finding");
      ("trial", Json.Int f.s_trial);
      ("fingerprint", Json.String f.s_fingerprint);
      ("check", Json.String f.s_check);
      ("detail", Json.String f.s_detail);
      ("file", Json.String f.s_file);
      ("canary", Json.Bool f.s_canary) ]

let trial_json t =
  Json.Obj
    [ ("kind", Json.String "trial");
      ("trial", Json.Int t.t_trial);
      ("arm", Json.Int t.t_arm);
      ("reward", Json.Float t.t_reward);
      ("findings", Json.Int t.t_findings);
      ("escalations", Json.Int t.t_escalations);
      ("circuit_seed", Json.Int t.t_circuit_seed) ]

let finding_of_json j =
  let str k = Json.member_str k j and int k = Json.member_int k j in
  match
    (int "trial", str "fingerprint", str "check", str "detail", str "file",
     Json.member "canary" j)
  with
  | ( Some s_trial, Some s_fingerprint, Some s_check, Some s_detail,
      Some s_file, Some (Json.Bool s_canary) ) ->
    Some { s_trial; s_fingerprint; s_check; s_detail; s_file; s_canary }
  | _ -> None

let trial_of_json j =
  let int k = Json.member_int k j in
  match
    (int "trial", int "arm", Json.member_float "reward" j, int "findings",
     int "escalations", int "circuit_seed")
  with
  | ( Some t_trial, Some t_arm, Some t_reward, Some t_findings,
      Some t_escalations, Some t_circuit_seed ) ->
    Some { t_trial; t_arm; t_reward; t_findings; t_escalations;
           t_circuit_seed }
  | _ -> None

type writer = {
  w_tape : Hft_robust.Checkpoint.Tape.writer;
  mutable w_trials : int;
  mutable w_findings : int;
}

let create ~path ~meta =
  { w_tape = Hft_robust.Checkpoint.Tape.create ~path ~schema ~meta;
    w_trials = 0;
    w_findings = 0 }

let append_finding w f =
  Hft_robust.Checkpoint.Tape.emit w.w_tape (finding_json f);
  w.w_findings <- w.w_findings + 1

let append_trial w t =
  Hft_robust.Checkpoint.Tape.emit w.w_tape (trial_json t);
  w.w_trials <- w.w_trials + 1;
  Hft_obs.Journal.record
    (Hft_obs.Journal.Checkpoint { classes = w.w_trials; tests = w.w_findings })

let close w = Hft_robust.Checkpoint.Tape.close w.w_tape

type record = Finding of finding_rec | Trial of trial_rec

(* Validate every record, trial commits in order included, then roll
   back the findings after the last trial marker.  Findings dedup by
   fingerprint as belt and braces — a re-run trial rewrites its
   reproducer atomically under the same name. *)
let load ~path =
  let exception Bad of string in
  let next = ref 0 in
  let decode j =
    let bad what = raise (Bad (Printf.sprintf "%s: %s" path what)) in
    match (Json.member_str "kind" j, finding_of_json j, trial_of_json j) with
    | Some "finding", Some f, _ -> (j, Finding f)
    | Some "trial", _, Some t when t.t_trial = !next ->
      incr next;
      (j, Trial t)
    | Some "trial", _, Some t ->
      bad (Printf.sprintf "trial %d committed out of order" t.t_trial)
    | Some (("finding" | "trial") as k), _, _ ->
      bad ("malformed " ^ k ^ " record")
    | _ -> bad "record with unknown kind"
  in
  match Hft_robust.Checkpoint.Tape.load ~path ~schema with
  | Error m -> Error m
  | Ok (meta, records) ->
    (match List.map decode records with
     | exception Bad m -> Error m
     | decoded ->
       let kept =
         Json.committed decoded ~commits:(function
           | _, Trial _ -> true
           | _, Finding _ -> false)
       in
       let seen = Hashtbl.create 32 in
       Ok
         { meta;
           trials =
             List.filter_map (function _, Trial t -> Some t | _ -> None) kept;
           findings =
             List.filter_map
               (function
                 | _, Finding f when not (Hashtbl.mem seen f.s_fingerprint) ->
                   Hashtbl.replace seen f.s_fingerprint ();
                   Some f
                 | _ -> None)
               kept;
           records = List.map fst kept })

(* Resume through the shared protocol: the campaign fingerprint is
   checked, then the tape is compacted to its committed records. *)
let resume ~path ~meta st =
  let (), w_tape =
    Hft_robust.Checkpoint.Tape.resume ~site:"fuzz.resume"
      ~hint:"resume with the original --seed, or start a fresh corpus" ~path
      ~schema ~meta (st.meta, st.records) ignore
  in
  { w_tape;
    w_trials = List.length st.trials;
    w_findings = List.length st.findings }
