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

(* Parse the committed prefix: walk the records keeping a pending
   finding buffer that only graduates when its trial commit marker
   arrives; whatever is pending at end-of-file was torn off by the
   crash and is discarded (the resumed campaign regenerates it).
   Findings dedup by fingerprint as belt and braces — a re-run trial
   rewrites its reproducer atomically under the same name. *)
let load ~path =
  match Hft_robust.Checkpoint.Tape.load ~path ~schema with
  | Error m -> Error m
  | Ok (meta, records) ->
    let seen = Hashtbl.create 32 in
    let trials = ref [] in
    let findings = ref [] in
    let pending = ref [] in
    let rec walk = function
      | [] -> Ok ()
      | r :: rest ->
        (match Json.member "kind" r with
         | Some (Json.String "finding") ->
           (match finding_of_json r with
            | Some f ->
              pending := f :: !pending;
              walk rest
            | None -> Error (path ^ ": malformed finding record"))
         | Some (Json.String "trial") ->
           (match trial_of_json r with
            | Some t ->
              let expected =
                match !trials with
                | [] -> 0
                | prev :: _ -> prev.t_trial + 1
              in
              if t.t_trial <> expected then
                Error
                  (Printf.sprintf "%s: trial %d committed out of order" path
                     t.t_trial)
              else begin
                List.iter
                  (fun f ->
                    if not (Hashtbl.mem seen f.s_fingerprint) then begin
                      Hashtbl.replace seen f.s_fingerprint ();
                      findings := f :: !findings
                    end)
                  (List.rev !pending);
                pending := [];
                trials := t :: !trials;
                walk rest
              end
            | None -> Error (path ^ ": malformed trial record"))
         | _ -> Error (path ^ ": record with unknown kind"))
    in
    (match walk records with
     | Error _ as e -> e
     | Ok () ->
       Ok { meta; trials = List.rev !trials; findings = List.rev !findings })

(* Resume: rewrite the committed prefix through a fresh tape (emit_raw,
   so the compaction consumes no chaos draws), atomically replace the
   file, and hand back a writer positioned after the last committed
   trial.  Uncommitted trailing finding lines — and a torn final line —
   vanish in the rewrite, so the resumed campaign's appends continue a
   clean transaction stream. *)
let resume ~path st =
  let tmp = path ^ ".compact" in
  let w = Hft_robust.Checkpoint.Tape.create ~path:tmp ~schema ~meta:st.meta in
  let by_trial = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_trial f.s_trial)
      in
      Hashtbl.replace by_trial f.s_trial (f :: prev))
    st.findings;
  List.iter
    (fun t ->
      List.iter
        (fun f -> Hft_robust.Checkpoint.Tape.emit_raw w (finding_json f))
        (List.rev
           (Option.value ~default:[] (Hashtbl.find_opt by_trial t.t_trial)));
      Hft_robust.Checkpoint.Tape.emit_raw w (trial_json t))
    st.trials;
  Hft_robust.Checkpoint.Tape.close w;
  Sys.rename tmp path;
  { w_tape = Hft_robust.Checkpoint.Tape.reopen ~path;
    w_trials = List.length st.trials;
    w_findings = List.length st.findings }
