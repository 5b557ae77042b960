(* Hft_fuzz: the bandit's bit-exact replay, the minimizer's 1-minimal
   contract, reproducer round-trips, crash-only state rollback, and the
   campaign-level guarantees — determinism, kill-and-resume bit
   identity, and the regression canary re-finding the historical
   seed-4246 unsoundness. *)

open Hft_fuzz
open Hft_gate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tmp_dir () =
  let d = Filename.temp_file "hft_fuzz" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* LinUCB                                                             *)
(* ------------------------------------------------------------------ *)

let test_linucb_replay () =
  (* Same (arm, x, reward) history => bit-identical matrices and the
     same deterministic selections — the property campaign resume
     rests on. *)
  let ctx =
    [| [| 1.0; 0.2; 0.7 |]; [| 1.0; 0.9; 0.1 |]; [| 1.0; 0.5; 0.5 |] |]
  in
  let history =
    [ (0, 1.5); (1, 0.0); (2, 3.0); (2, 0.5); (0, 0.0); (1, 2.0); (2, 1.0) ]
  in
  let replay () =
    let b = Linucb.create ~alpha:1.0 ~d:3 ~arms:3 in
    List.iter (fun (arm, reward) -> Linucb.update b ~arm ~x:ctx.(arm) ~reward)
      history;
    b
  in
  let a = replay () and b = replay () in
  check_str "replayed state is bit-identical"
    (Hft_util.Json.to_string (Linucb.state_json a))
    (Hft_util.Json.to_string (Linucb.state_json b));
  check_int "same selection" (Linucb.select a ~contexts:ctx)
    (Linucb.select b ~contexts:ctx);
  check_int "pulls replayed" 3 (Linucb.pulls a 2)

let test_linucb_explores_then_exploits () =
  (* Orthogonal unit contexts: untouched arms score identically. *)
  let ctx = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let b = Linucb.create ~alpha:1.0 ~d:2 ~arms:2 in
  (* Untouched arms tie; the argmax breaks to the lowest index. *)
  check_int "tie breaks low" 0 (Linucb.select b ~contexts:ctx);
  for _ = 1 to 5 do
    Linucb.update b ~arm:1 ~x:ctx.(1) ~reward:10.0;
    Linucb.update b ~arm:0 ~x:ctx.(0) ~reward:0.0
  done;
  check_int "reward pulls the selection" 1 (Linucb.select b ~contexts:ctx);
  check "score reflects payoff" true
    (Linucb.score b ~arm:1 ~x:ctx.(1) > Linucb.score b ~arm:0 ~x:ctx.(0))

(* ------------------------------------------------------------------ *)
(* Minimizer                                                          *)
(* ------------------------------------------------------------------ *)

let test_minimize_shrinks () =
  let nl = Netlist_gen.sequential ~seed:42 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let has_xor nl' =
    let found = ref false in
    for v = 0 to Netlist.n_nodes nl' - 1 do
      match Netlist.kind nl' v with
      | Netlist.Xor | Netlist.Xnor -> found := true
      | _ -> ()
    done;
    !found
  in
  if has_xor nl then begin
    let valid = ref true in
    let checks = ref 0 in
    let checked nl' =
      incr checks;
      (match Netlist.validate nl' with
       | () -> ()
       | exception _ -> valid := false);
      has_xor nl'
    in
    let reduced, steps = Minimize.reduce ~check:checked nl in
    check "property preserved" true (has_xor reduced);
    check "every candidate was a valid netlist" true !valid;
    check "the oracle was actually consulted" true (!checks > 0);
    check_int "steps reported" !checks steps;
    check "shrunk" true (Netlist.n_nodes reduced < Netlist.n_nodes nl);
    check "interface kept: PIs survive" true
      (List.length (Netlist.pis reduced) = List.length (Netlist.pis nl));
    (* 1-minimal: by construction reduce stops only when no single
       bypass preserves the property (or the step bound trips). *)
    check "still sequentialy well-formed" true
      (match Netlist.comb_order reduced with _ -> true | exception _ -> false)
  end

(* ------------------------------------------------------------------ *)
(* Reproducers                                                        *)
(* ------------------------------------------------------------------ *)

let test_repro_roundtrip () =
  let nl = Netlist_gen.sequential ~seed:7 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let p =
    { Repro.p_fingerprint = Repro.fingerprint ~check:"atpg-diff" ~seed:7
        ~detail:"x";
      p_check = "atpg-diff";
      p_detail = "x";
      p_seed = 7;
      p_canary = false;
      p_arm = "baseline";
      p_trial = 3;
      p_netlist = nl;
      p_original_nodes = Netlist.n_nodes nl;
      p_minimize_steps = 0 }
  in
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Repro.save ~dir p in
  match Repro.load path with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok q ->
    check_str "full document round-trips (names, kinds, fanins, provenance)"
      (Hft_util.Json.to_string (Repro.to_json p))
      (Hft_util.Json.to_string (Repro.to_json q));
    check "metadata survives" true
      (q.Repro.p_fingerprint = p.Repro.p_fingerprint
       && q.Repro.p_seed = 7 && q.Repro.p_arm = "baseline"
       && q.Repro.p_trial = 3 && not q.Repro.p_canary);
    check "sequential loops survive (DFF fixups)" true
      (List.length (Netlist.dffs q.Repro.p_netlist)
       = List.length (Netlist.dffs nl));
    (* Saving again is an atomic overwrite with identical bytes. *)
    let before = In_channel.with_open_bin path In_channel.input_all in
    let _ = Repro.save ~dir p in
    check_str "rewrite is byte-identical" before
      (In_channel.with_open_bin path In_channel.input_all)

let test_repro_rejects_garbage () =
  check "schema mismatch rejected" true
    (match
       Repro.of_json
         (Hft_util.Json.Obj [ ("schema", Hft_util.Json.String "bogus/9") ])
     with
     | Error _ -> true
     | Ok _ -> false);
  check "dangling fanin rejected" true
    (match
       Hft_util.Json.parse
         {|{"schema":"hft-repro/1","fingerprint":"f","check":"c","detail":"d",
            "seed":1,"canary":false,"arm":"a","trial":0,"original_nodes":1,
            "minimize_steps":0,"netlist":{"name":"x","nodes":[
              {"kind":"and","name":"g","fanins":[5,6]}]}}|}
     with
     | Error _ -> false
     | Ok j -> (match Repro.of_json j with Error _ -> true | Ok _ -> false))

(* ------------------------------------------------------------------ *)
(* Crash-only state                                                   *)
(* ------------------------------------------------------------------ *)

let mk_finding ?(fp = "aa") trial =
  { State.s_trial = trial; s_fingerprint = fp; s_check = "atpg-diff";
    s_detail = "d"; s_file = "repro-aa.json"; s_canary = false }

let mk_trial ?(arm = 1) ?(findings = 0) trial =
  { State.t_trial = trial; t_arm = arm; t_reward = 1.5; t_findings = findings;
    t_escalations = 0; t_circuit_seed = 1_000_003 + trial }

let test_state_rollback_and_resume () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "campaign.state" in
  let meta = [ ("seed", Hft_util.Json.Int 1) ] in
  let w = State.create ~path ~meta in
  State.append_trial w (mk_trial 0);
  State.append_finding w (mk_finding ~fp:"aa" 1);
  State.append_trial w (mk_trial ~findings:1 1);
  (* Trial 2's transaction: a finding lands, the commit marker does
     not — then the process dies mid-write of a third record. *)
  State.append_finding w (mk_finding ~fp:"bb" 2);
  State.close w;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"kind\":\"tri";
  close_out oc;
  (match State.load ~path with
   | Error m -> Alcotest.failf "load failed: %s" m
   | Ok st ->
     check "meta round-trips" true (st.State.meta = meta);
     check_int "only committed trials survive" 2
       (List.length st.State.trials);
     check_int "uncommitted trailing finding rolled back" 1
       (List.length st.State.findings);
     check_str "the committed finding" "aa"
       (List.hd st.State.findings).State.s_fingerprint;
     (* Resume compacts the tape: the torn line and the orphaned
        finding vanish, committed bytes survive. *)
     let w2 = State.resume ~path ~meta st in
     State.append_trial w2 (mk_trial ~arm:2 2);
     State.close w2;
     match State.load ~path with
     | Error m -> Alcotest.failf "reload failed: %s" m
     | Ok st2 ->
       check_int "resume continued the trial stream" 3
         (List.length st2.State.trials);
       check "compaction kept the committed finding" true
         (List.map (fun f -> f.State.s_fingerprint) st2.State.findings
          = [ "aa" ]));
  (* Out-of-order trial commits are corruption, not interruption. *)
  let w3 = State.create ~path ~meta in
  State.append_trial w3 (mk_trial 0);
  State.append_trial w3 (mk_trial 2);
  State.close w3;
  check "trial gap is an error" true
    (match State.load ~path with Error _ -> true | Ok _ -> false)

let test_state_dedups_findings () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "campaign.state" in
  let w = State.create ~path ~meta:[] in
  State.append_finding w (mk_finding ~fp:"aa" 0);
  State.append_trial w (mk_trial ~findings:1 0);
  State.append_finding w (mk_finding ~fp:"aa" 1);
  State.append_trial w (mk_trial ~findings:1 1);
  State.close w;
  match State.load ~path with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok st ->
    check_int "same fingerprint dedups to one finding" 1
      (List.length st.State.findings)

(* ------------------------------------------------------------------ *)
(* Oracle: clean circuits stay clean; the canary bites                *)
(* ------------------------------------------------------------------ *)

let test_oracle_clean_and_canary () =
  (* Seed 1000 is the base seed of CI's fixed-budget [hft fuzz] run: all
     six oracles are quiet on it. *)
  let clean = Netlist_gen.sequential ~seed:1000 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let report =
    Hft_obs.with_enabled true (fun () -> Oracle.run ~seed:1000 clean)
  in
  check "clean circuit, clean battery" true (report.Oracle.r_findings = []);
  check_int "no escalations" 0 report.Oracle.r_escalations;
  (* Seed 4246 under the canary (propagation fallbacks off) re-exposes
     the historical unsound-Untestable: naive and drop disagree. *)
  let nl = Netlist_gen.sequential ~seed:4246 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let fs, esc =
    Hft_obs.with_enabled true (fun () ->
        Oracle.run_check ~canary:true ~name:"atpg-diff" ~seed:4246 nl)
  in
  check "canary re-finds the seed-4246 disagreement" true (fs <> []);
  check_int "a finding, not a crash" 0 esc;
  check "knob restored after the canary run" true
    !Podem.propagation_fallbacks_enabled;
  (* With the real engine (fallbacks on) the same circuit is quiet —
     the historical bug stays fixed. *)
  let fs_fixed, _ =
    Hft_obs.with_enabled true (fun () ->
        Oracle.run_check ~canary:false ~name:"atpg-diff" ~seed:4246 nl)
  in
  check "fixed engine shows no disagreement" true (fs_fixed = [])

(* ------------------------------------------------------------------ *)
(* Campaign: determinism and kill-and-resume bit identity             *)
(* ------------------------------------------------------------------ *)

let slurp path = In_channel.with_open_bin path In_channel.input_all

let corpus_sig dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, slurp (Filename.concat dir f)))

let run_campaign ~dir ~resume =
  Campaign.run
    { Campaign.default_cfg with
      Campaign.c_seed = 1; c_trials = 9; c_corpus = dir; c_resume = resume }

let test_campaign_deterministic_and_canary () =
  let d1 = tmp_dir () and d2 = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d1; rm_rf d2) @@ fun () ->
  let y1 = run_campaign ~dir:d1 ~resume:false in
  let y2 = run_campaign ~dir:d2 ~resume:false in
  check_int "trials committed" 9 y1.Campaign.y_trials_total;
  check "identical corpora (state tape and reproducers)" true
    (corpus_sig d1 = corpus_sig d2);
  check_str "identical bandit matrices"
    (Hft_util.Json.to_string y1.Campaign.y_bandit)
    (Hft_util.Json.to_string y2.Campaign.y_bandit);
  (* The 9-trial run includes the regression arm's init pull: the
     canary finding must be in the corpus, minimized, and not counted
     as a real (non-canary) alarm. *)
  check "canary finding landed" true (y1.Campaign.y_corpus_size >= 1);
  check_int "no real findings on the reference portfolio" 0
    y1.Campaign.y_real_findings;
  let repro =
    Sys.readdir d1 |> Array.to_list
    |> List.filter (fun f -> f <> Campaign.state_file)
  in
  check "exactly the canary reproducer on disk" true
    (List.length repro >= 1);
  match Repro.load (Filename.concat d1 (List.hd repro)) with
  | Error m -> Alcotest.failf "corpus file unreadable: %s" m
  | Ok p ->
    check "canary-flagged" true p.Repro.p_canary;
    check_int "minimized below the generator's size"
      (Netlist.n_nodes p.Repro.p_netlist |> min p.Repro.p_original_nodes)
      (Netlist.n_nodes p.Repro.p_netlist);
    check "replays" true (Repro.replay p <> [])

let test_campaign_kill_resume_bit_identical () =
  let ref_dir = tmp_dir () and kill_dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf ref_dir; rm_rf kill_dir) @@ fun () ->
  let reference = run_campaign ~dir:ref_dir ~resume:false in
  (* Chaos kills the campaign at a state-tape serialisation boundary —
     mid-transaction for trial 7 (the regression arm's finding record
     is the 8th Serialize draw). *)
  let killed =
    match
      Hft_robust.Chaos.with_config
        { Hft_robust.Chaos.seed = 1; prob = 1.0;
          sites = [ Hft_robust.Chaos.Serialize ]; arm_after = 7 }
        (fun () -> run_campaign ~dir:kill_dir ~resume:false)
    with
    | _ -> false
    | exception Hft_robust.Chaos.Injection _ -> true
  in
  check "chaos killed the campaign mid-transaction" true killed;
  let resumed = run_campaign ~dir:kill_dir ~resume:true in
  check "resumed run reports the full campaign" true
    (resumed.Campaign.y_trials_total = reference.Campaign.y_trials_total);
  check "corpus is byte-identical to the uninterrupted run" true
    (corpus_sig ref_dir = corpus_sig kill_dir);
  check_str "bandit trajectory is bit-identical"
    (Hft_util.Json.to_string reference.Campaign.y_bandit)
    (Hft_util.Json.to_string resumed.Campaign.y_bandit);
  check "arm pulls match" true
    (List.map (fun a -> (a.Campaign.as_name, a.Campaign.as_pulls))
       reference.Campaign.y_arms
     = List.map (fun a -> (a.Campaign.as_name, a.Campaign.as_pulls))
         resumed.Campaign.y_arms);
  (* Resuming with a different seed is a typed validation error. *)
  check "seed mismatch rejects the resume" true
    (match
       Campaign.run
         { Campaign.default_cfg with
           Campaign.c_seed = 2; c_trials = 9; c_corpus = kill_dir;
           c_resume = true }
     with
     | _ -> false
     | exception Hft_robust.Validation.Invalid _ -> true);
  (* Resuming a corpus that does not exist is, too. *)
  check "missing state rejects the resume" true
    (match
       Campaign.run
         { Campaign.default_cfg with
           Campaign.c_seed = 1; c_corpus = Filename.concat kill_dir "nope";
           c_resume = true }
     with
     | _ -> false
     | exception Hft_robust.Validation.Invalid _ -> true)

let () =
  Alcotest.run "hft_fuzz"
    [
      ( "linucb",
        [
          Alcotest.test_case "bit-exact replay" `Quick test_linucb_replay;
          Alcotest.test_case "explore/exploit" `Quick
            test_linucb_explores_then_exploits;
        ] );
      ( "minimize",
        [ Alcotest.test_case "shrinks under oracle" `Quick
            test_minimize_shrinks ] );
      ( "repro",
        [
          Alcotest.test_case "roundtrip" `Quick test_repro_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_repro_rejects_garbage;
        ] );
      ( "state",
        [
          Alcotest.test_case "rollback + compaction" `Quick
            test_state_rollback_and_resume;
          Alcotest.test_case "fingerprint dedup" `Quick
            test_state_dedups_findings;
        ] );
      ( "oracle",
        [ Alcotest.test_case "clean battery + canary" `Quick
            test_oracle_clean_and_canary ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic + canary corpus" `Quick
            test_campaign_deterministic_and_canary;
          Alcotest.test_case "kill + resume bit-identical" `Quick
            test_campaign_kill_resume_bit_identical;
        ] );
    ]
