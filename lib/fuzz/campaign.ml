(* The continuous fuzz campaign: a LinUCB bandit steering a portfolio
   of netlist-generator configurations at the differential oracles.

   One trial = pick an arm, generate a circuit, run every oracle check
   on it (inside [Hft_obs.isolated], so the engines' telemetry never
   pollutes the campaign's own), minimize and persist whatever fired,
   reward the bandit, commit the trial to the hft-fuzz/1 state tape.
   Everything a trial does is a deterministic function of (campaign
   seed, trial number, committed history): circuit seeds derive from
   the campaign seed, oracle deadlines are step budgets, the bandit
   replays bit-identically from the committed (arm, reward) stream.
   The only nondeterministic input is the optional wall-clock duration
   budget, which can change *when* the campaign stops but never what
   any completed trial contains. *)

open Hft_gate
open Hft_util

type arm_kind = Generator of Netlist_gen.config | Regression

type arm = { a_name : string; a_kind : arm_kind }

(* The portfolio: one arm per structural failure hypothesis — depth,
   width, reconvergence, sequential-loop density, control domination,
   inversion chains — plus the regression arm, which replays the
   seed-4246 family against the PODEM canary (propagation fallbacks
   disabled) so the campaign proves on every run that it would still
   catch the historical unsound-Untestable bug. *)
let portfolio =
  let d = Netlist_gen.default in
  [ { a_name = "baseline"; a_kind = Generator d };
    { a_name = "deep";
      a_kind = Generator { d with g_window = 3; g_n_gates = 20 } };
    { a_name = "wide";
      a_kind = Generator { d with g_n_pi = 8; g_n_gates = 18 } };
    { a_name = "reconv";
      a_kind =
        Generator
          { d with g_hub_bias = 3; g_n_gates = 18;
            g_mix = Netlist_gen.Xor_heavy } };
    { a_name = "seq-dense";
      a_kind = Generator { d with g_n_dff = 6; g_n_gates = 16 } };
    { a_name = "mux-ctl";
      a_kind = Generator { d with g_n_gates = 16; g_mix = Netlist_gen.Mux_heavy } };
    { a_name = "chains";
      a_kind =
        Generator
          { d with g_window = 2; g_n_gates = 18;
            g_mix = Netlist_gen.Chain_heavy } };
    { a_name = "regression"; a_kind = Regression } ]

let arm_names = List.map (fun a -> a.a_name) portfolio
let n_arms = List.length portfolio
let arm_canary a = a.a_kind = Regression

(* Static per-arm context: bias plus the generator shape, each
   dimension normalized to the portfolio's range so no single feature
   dominates the ridge estimate. *)
let feature_dim = 7

let features a =
  let cfg =
    match a.a_kind with Generator c -> c | Regression -> Netlist_gen.default
  in
  let mix_idx =
    match cfg.Netlist_gen.g_mix with
    | Netlist_gen.Balanced -> 0.0
    | Netlist_gen.Xor_heavy -> 1.0
    | Netlist_gen.Mux_heavy -> 2.0
    | Netlist_gen.Chain_heavy -> 3.0
  in
  [| 1.0;
     float_of_int cfg.Netlist_gen.g_n_pi /. 8.0;
     float_of_int cfg.Netlist_gen.g_n_dff /. 8.0;
     float_of_int cfg.Netlist_gen.g_n_gates /. 24.0;
     float_of_int cfg.Netlist_gen.g_window /. 4.0;
     float_of_int cfg.Netlist_gen.g_hub_bias /. 4.0;
     mix_idx /. 4.0 |]

let contexts = Array.of_list (List.map features portfolio)

(* Reward shaping: a never-seen finding class is the jackpot, a known
   class re-found is mild evidence the arm probes real weaknesses, and
   an escalation (check crashed/hung under the supervisor) is worth
   keeping the arm warm even before the crash dedups to a class. *)
let reward ~fresh ~refound ~escalations =
  (3.0 *. float_of_int fresh)
  +. (1.0 *. float_of_int refound)
  +. (0.5 *. float_of_int escalations)

type cfg = {
  c_seed : int;
  c_trials : int;  (** total committed trials to reach (resume included) *)
  c_duration : float option;  (** optional wall-clock budget, seconds *)
  c_corpus : string;  (** corpus directory (created if missing) *)
  c_resume : bool;
  c_step_budget : int;
}

let default_cfg =
  { c_seed = 1; c_trials = 32; c_duration = None; c_corpus = "fuzz-corpus";
    c_resume = false; c_step_budget = Oracle.default_step_budget }

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
  y_stop : string;
  y_state_path : string;
  y_bandit : Json.t;  (** {!Linucb.state_json} — resume bit-identity probe *)
}

let summary_json y =
  Json.Obj
    [ ("schema", Json.String "hft-fuzz-summary/1");
      ("trials_run", Json.Int y.y_trials_run);
      ("trials_total", Json.Int y.y_trials_total);
      ("new_findings", Json.Int y.y_new_findings);
      ("refound", Json.Int y.y_refound);
      ("escalations", Json.Int y.y_escalations);
      ("corpus_size", Json.Int y.y_corpus_size);
      ("real_findings", Json.Int y.y_real_findings);
      ("stop", Json.String y.y_stop);
      ("state", Json.String y.y_state_path);
      ("arms",
       Json.List
         (List.map
            (fun a ->
              Json.Obj
                [ ("name", Json.String a.as_name);
                  ("pulls", Json.Int a.as_pulls);
                  ("reward_sum", Json.Float a.as_reward_sum) ])
            y.y_arms));
      ("bandit", y.y_bandit) ]

let state_file = "campaign.state"

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let meta_of cfg =
  [ ("seed", Json.Int cfg.c_seed);
    ("portfolio", Json.String (String.concat "," arm_names)) ]

(* Deterministic per-trial circuit seed.  Regression-arm seeds walk the
   4246 family by pull count instead, so the first regression pull
   always replays the exact historical failure. *)
let circuit_seed cfg ~trial = (cfg.c_seed * 1_000_003) + trial

let generate_for ~reg_pulls cfg arm ~trial =
  match arm.a_kind with
  | Generator g ->
    let seed = circuit_seed cfg ~trial in
    (seed, Netlist_gen.generate ~seed g)
  | Regression ->
    let seed = 4246 + reg_pulls in
    (seed, Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14)

(* Run the oracle (or one check) against a scratch recorder: the
   engines under test need observability on for their ledger outcome
   maps, but nothing they record may leak into the campaign's own
   metrics, journal or progress stream. *)
let oracle_run ~canary ~step_budget ~seed nl =
  Hft_obs.isolated (fun () ->
      Hft_obs.with_enabled true (fun () ->
          Oracle.run ~canary ~step_budget ~seed nl))

let oracle_recheck ~canary ~step_budget ~name ~seed nl =
  Hft_obs.isolated (fun () ->
      Hft_obs.with_enabled true (fun () ->
          let fs, _ = Oracle.run_check ~canary ~step_budget ~name ~seed nl in
          fs))

let metric_trials = "hft.fuzz.trials"
let metric_new = "hft.fuzz.findings.new"
let metric_refound = "hft.fuzz.findings.refound"
let metric_escalations = "hft.fuzz.escalations"
let metric_corpus = "hft.fuzz.corpus.size"
let metric_minimize = "hft.fuzz.minimize.steps"

let run cfg =
  mkdirs cfg.c_corpus;
  let path = Filename.concat cfg.c_corpus state_file in
  (* Committed history: replayed into the bandit and the dedup set so a
     resumed campaign continues the same trajectory.  The resume checks
     the tape's fingerprint before anything replays it. *)
  let meta = meta_of cfg in
  let prior, writer =
    if cfg.c_resume then
      match State.load ~path with
      | Ok st -> (st, State.resume ~path ~meta st)
      | Error m ->
        Hft_robust.Validation.fail ~site:"fuzz.resume"
          ~hint:"pass the corpus directory of an interrupted campaign" m
    else
      ( { State.meta; trials = []; findings = []; records = [] },
        State.create ~path ~meta )
  in
  let bandit = Linucb.create ~alpha:1.0 ~d:feature_dim ~arms:n_arms in
  let reward_sums = Array.make n_arms 0.0 in
  List.iter
    (fun (t : State.trial_rec) ->
      Linucb.update bandit ~arm:t.State.t_arm ~x:contexts.(t.State.t_arm)
        ~reward:t.State.t_reward;
      reward_sums.(t.State.t_arm) <-
        reward_sums.(t.State.t_arm) +. t.State.t_reward)
    prior.State.trials;
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (f : State.finding_rec) ->
      Hashtbl.replace seen f.State.s_fingerprint f.State.s_canary)
    prior.State.findings;
  let start_trial = List.length prior.State.trials in
  let reg_arm =
    let rec idx i = function
      | [] -> -1
      | a :: _ when a.a_kind = Regression -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 portfolio
  in
  let reg_pulls = ref (if reg_arm >= 0 then Linucb.pulls bandit reg_arm else 0) in
  let t0 = Hft_obs.Clock.now () in
  let new_total = ref 0 and refound_total = ref 0 and esc_total = ref 0 in
  let trials_run = ref 0 in
  let stop = ref (if start_trial >= cfg.c_trials then "trials" else "") in
  Hft_obs.Progress.campaign_begin ~label:"fuzz"
    ~faults:(max 0 (cfg.c_trials - start_trial));
  Fun.protect
    ~finally:(fun () -> State.close writer)
    (fun () ->
      let trial = ref start_trial in
      while !stop = "" do
        let t = !trial in
        let arm_idx =
          if t < n_arms then t else Linucb.select bandit ~contexts
        in
        let arm = List.nth portfolio arm_idx in
        let canary = arm_canary arm in
        let seed, nl = generate_for ~reg_pulls:!reg_pulls cfg arm ~trial:t in
        if canary then incr reg_pulls;
        let cls =
          Hft_obs.Ledger.register_class
            ~rep:(Printf.sprintf "t%05d:%s" t arm.a_name)
            ~members:[ Printf.sprintf "t%05d:%s" t arm.a_name ]
        in
        let report =
          oracle_run ~canary ~step_budget:cfg.c_step_budget ~seed nl
        in
        let fresh = ref 0 and refound = ref 0 in
        let fingerprints = ref [] in
        List.iter
          (fun (f : Oracle.finding) ->
            let fp =
              Repro.fingerprint ~check:f.Oracle.f_check ~seed
                ~detail:f.Oracle.f_detail
            in
            fingerprints := fp :: !fingerprints;
            if Hashtbl.mem seen fp then incr refound
            else begin
              Hashtbl.replace seen fp canary;
              incr fresh;
              (* Shrink while the same check still fires, then persist a
                 self-contained reproducer and its state record — the
                 trial marker below commits both. *)
              let still_fails nl' =
                oracle_recheck ~canary ~step_budget:cfg.c_step_budget
                  ~name:f.Oracle.f_check ~seed nl'
                <> []
              in
              let reduced, steps = Minimize.reduce ~check:still_fails nl in
              Hft_obs.Registry.record metric_minimize (float_of_int steps);
              let repro =
                { Repro.p_fingerprint = fp;
                  p_check = f.Oracle.f_check;
                  p_detail = f.Oracle.f_detail;
                  p_seed = seed;
                  p_canary = canary;
                  p_arm = arm.a_name;
                  p_trial = t;
                  p_netlist = reduced;
                  p_original_nodes = Netlist.n_nodes nl;
                  p_minimize_steps = steps }
              in
              let _ = Repro.save ~dir:cfg.c_corpus repro in
              State.append_finding writer
                { State.s_trial = t;
                  s_fingerprint = fp;
                  s_check = f.Oracle.f_check;
                  s_detail = f.Oracle.f_detail;
                  s_file = Repro.filename repro;
                  s_canary = canary }
            end)
          report.Oracle.r_findings;
        let r =
          reward ~fresh:!fresh ~refound:!refound
            ~escalations:report.Oracle.r_escalations
        in
        Linucb.update bandit ~arm:arm_idx ~x:contexts.(arm_idx) ~reward:r;
        reward_sums.(arm_idx) <- reward_sums.(arm_idx) +. r;
        State.append_trial writer
          { State.t_trial = t;
            t_arm = arm_idx;
            t_reward = r;
            t_findings = !fresh + !refound;
            t_escalations = report.Oracle.r_escalations;
            t_circuit_seed = seed };
        new_total := !new_total + !fresh;
        refound_total := !refound_total + !refound;
        esc_total := !esc_total + report.Oracle.r_escalations;
        incr trials_run;
        Hft_obs.Registry.incr metric_trials;
        Hft_obs.Registry.incr ~by:!fresh metric_new;
        Hft_obs.Registry.incr ~by:!refound metric_refound;
        Hft_obs.Registry.incr ~by:report.Oracle.r_escalations
          metric_escalations;
        Hft_obs.Registry.set metric_corpus
          (float_of_int (Hashtbl.length seen));
        (* A clean trial resolves its watch class as proved-quiet; a
           finding-bearing one as aborted with the evidence attached —
           reusing the ledger taxonomy keeps `hft watch` working with no
           fuzz-specific stream events. *)
        Hft_obs.Ledger.resolve cls
          (if !fingerprints = [] then
             Hft_obs.Ledger.Proved_untestable { frames = 0 }
           else
             Hft_obs.Ledger.Aborted
               { budget = 0; frames = 0;
                 reason = Some (String.concat "," (List.rev !fingerprints)) });
        trial := t + 1;
        if !trial >= cfg.c_trials then stop := "trials"
        else
          match cfg.c_duration with
          | Some d when Hft_obs.Clock.now () -. t0 >= d -> stop := "duration"
          | _ -> ()
      done);
  Hft_obs.Progress.campaign_end ();
  let real =
    Hashtbl.fold (fun _ canary n -> if canary then n else n + 1) seen 0
  in
  {
    y_trials_run = !trials_run;
    y_trials_total = start_trial + !trials_run;
    y_new_findings = !new_total;
    y_refound = !refound_total;
    y_escalations = !esc_total;
    y_corpus_size = Hashtbl.length seen;
    y_real_findings = real;
    y_arms =
      List.mapi
        (fun i a ->
          { as_name = a.a_name;
            as_pulls = Linucb.pulls bandit i;
            as_reward_sum = reward_sums.(i) })
        portfolio;
    y_stop = !stop;
    y_state_path = path;
    y_bandit = Linucb.state_json bandit;
  }
