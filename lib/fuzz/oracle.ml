(* The differential oracles: every cross-engine agreement check the
   fuzz campaign ([hft fuzz]) runs against a candidate circuit.
   Factored here so the six checks live in exactly one place.

   Each check is independent (it re-runs whatever engines it needs) and
   deterministic given (netlist, seed, canary flag): derived RNG seeds
   and chaos seeds are fixed functions of [seed], engine deadlines are
   step budgets (never wall clocks), and the parallel check relies on
   the engines' jobs-count bit-identity contract.  {!run} wraps every
   check in [Supervisor.guard] so a hang (step budget), a crash or a
   chaos injection surfaces as a finding instead of killing the
   campaign.

   Obs discipline: the checks reset and read the global recorder
   (ledger outcome maps), so a caller with live telemetry of its own —
   the campaign — must wrap calls in [Hft_obs.isolated]. *)

open Hft_gate

type finding = { f_check : string; f_detail : string }

type report = { r_findings : finding list; r_escalations : int }

let check_names =
  [ "fsim-diff"; "atpg-diff"; "par-diff"; "replay-confirm";
    "chaos-conservation"; "guided-diff" ]

let default_step_budget = 5_000_000

let scanned_of nl = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl)

let supervisor ~step_budget =
  Some
    { Hft_robust.Supervisor.default with
      Hft_robust.Supervisor.deadline_steps = Some step_budget }

let run_atpg ~step_budget ?(jobs = 1) nl ~faults ~scanned strategy on_test =
  Hft_obs.reset ();
  let stats =
    Seq_atpg.run ~backtrack_limit:30 ~max_frames:3 ~strategy ~jobs
      ~supervisor:(supervisor ~step_budget) ?on_test nl ~faults ~scanned
  in
  (stats, Hft_obs.Ledger.outcomes ())

let conservation fs tag (s : Seq_atpg.stats) =
  if s.detected + s.untestable + s.aborted <> s.total then
    fs :=
      { f_check = tag;
        f_detail =
          Printf.sprintf "outcome conservation violated (%d+%d+%d <> %d)"
            s.detected s.untestable s.aborted s.total }
      :: !fs

(* The regression canary: run [f] with PODEM's propagation fallbacks
   disabled, restoring them afterwards — re-opens the seed-4246-class
   unsound-Untestable dead end so the differential proves it would
   still be caught. *)
let with_canary canary f =
  if not canary then f ()
  else begin
    Podem.propagation_fallbacks_enabled := false;
    Fun.protect
      ~finally:(fun () -> Podem.propagation_fallbacks_enabled := true)
      f
  end

let confirm_replay fs tag nl ~scanned tests =
  let claimed =
    List.concat_map (fun t -> t.Seq_atpg.t_detects) tests
    |> List.sort_uniq compare
  in
  let _, undet = Seq_atpg.replay nl ~scanned ~tests claimed in
  if undet <> [] then
    fs :=
      { f_check = tag;
        f_detail =
          Printf.sprintf "%d claimed detection(s) fail to replay"
            (List.length undet) }
      :: !fs

(* 1. Fault-simulation differential: the naive (full-resimulation) and
   cone-limited strategies must report the same detected set. *)
let check_fsim_diff ~seed nl =
  let faults = Fault.collapsed nl in
  let detected strategy =
    let rng = Hft_util.Rng.create ((seed * 3) + 1) in
    (Fsim.comb_random ~strategy nl ~rng ~n_patterns:32 faults).Fsim.detected
    |> List.sort compare
  in
  if detected Fsim.Naive <> detected Fsim.Cone then
    [ { f_check = "fsim-diff";
        f_detail = "fsim naive/cone detected sets differ" } ]
  else []

(* 2. ATPG differential: Naive and Drop may differ in effort, but a
   fault detected by one and proved untestable by the other is a
   soundness bug.  Under [canary] the propagation fallbacks are
   disabled, re-exposing the historical seed-4246 dead end. *)
let check_atpg_diff ~canary ~step_budget ~seed:_ nl =
  let faults = Fault.collapsed nl in
  let scanned = scanned_of nl in
  with_canary canary (fun () ->
      let fs = ref [] in
      let s_naive, o_naive =
        run_atpg ~step_budget nl ~faults ~scanned Seq_atpg.Naive None
      in
      let s_drop, o_drop =
        run_atpg ~step_budget nl ~faults ~scanned Seq_atpg.Drop None
      in
      conservation fs "atpg-diff" s_naive;
      conservation fs "atpg-diff" s_drop;
      Hashtbl.iter
        (fun f k1 ->
          match Hashtbl.find_opt o_drop f with
          | None ->
            fs :=
              { f_check = "atpg-diff";
                f_detail =
                  Printf.sprintf "fault %s missing from drop ledger" f }
              :: !fs
          | Some k2 ->
            if Hft_obs.Ledger.contradicts k1 k2 then
              fs :=
                { f_check = "atpg-diff";
                  f_detail =
                    Printf.sprintf "fault %s: naive says %s, drop says %s" f
                      k1 k2 }
                :: !fs)
        o_naive;
      List.rev !fs)

(* 3. Parallel differential: the domain-pool-sharded campaign (jobs=4)
   must reproduce the sequential Drop run bit for bit — stats,
   per-fault outcomes, generated test set and ledger waterfall. *)
let check_par_diff ~step_budget ~seed:_ nl =
  let faults = Fault.collapsed nl in
  let scanned = scanned_of nl in
  let fs = ref [] in
  let tests = ref [] in
  let s_drop, o_drop =
    run_atpg ~step_budget nl ~faults ~scanned Seq_atpg.Drop
      (Some (fun t -> tests := t :: !tests))
  in
  let wf_drop = Hft_util.Json.to_string (Hft_obs.Ledger.waterfall_json ()) in
  let par_tests = ref [] in
  let s_par, o_par =
    run_atpg ~step_budget ~jobs:4 nl ~faults ~scanned Seq_atpg.Drop
      (Some (fun t -> par_tests := t :: !par_tests))
  in
  let wf_par = Hft_util.Json.to_string (Hft_obs.Ledger.waterfall_json ()) in
  let bad detail = fs := { f_check = "par-diff"; f_detail = detail } :: !fs in
  if s_par <> s_drop then bad "stats differ";
  if wf_par <> wf_drop then
    bad (Printf.sprintf "waterfall differs (%s vs %s)" wf_drop wf_par);
  if !par_tests <> !tests then bad "generated test sets differ";
  let bindings tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  if bindings o_par <> bindings o_drop then bad "per-fault outcomes differ";
  List.rev !fs

(* 4. Replay confirmation: every generation-time detection claim of the
   Drop engine must be confirmed by an independent replay. *)
let check_replay_confirm ~step_budget ~seed:_ nl =
  let faults = Fault.collapsed nl in
  let scanned = scanned_of nl in
  let fs = ref [] in
  let tests = ref [] in
  let _ =
    run_atpg ~step_budget nl ~faults ~scanned Seq_atpg.Drop
      (Some (fun t -> tests := t :: !tests))
  in
  confirm_replay fs "replay-confirm" nl ~scanned !tests;
  List.rev !fs

(* 5. Chaos conservation: with injections armed at every engine site,
   the supervised campaign must still terminate, conserve outcomes and
   make only sound detection claims. *)
let check_chaos_conservation ~step_budget ~seed nl =
  let faults = Fault.collapsed nl in
  let scanned = scanned_of nl in
  let fs = ref [] in
  let chaos_tests = ref [] in
  (match
     Hft_robust.Chaos.with_config
       {
         Hft_robust.Chaos.seed = (seed * 7) + 5;
         prob = 0.2;
         sites =
           [ Hft_robust.Chaos.Podem; Hft_robust.Chaos.Fsim;
             Hft_robust.Chaos.Collapse ];
         arm_after = 0;
       }
       (fun () ->
         Hft_obs.reset ();
         Seq_atpg.run ~backtrack_limit:30 ~max_frames:3
           ~strategy:Seq_atpg.Drop
           ~supervisor:(supervisor ~step_budget)
           ~on_test:(fun t -> chaos_tests := t :: !chaos_tests)
           nl ~faults ~scanned)
   with
   | s -> conservation fs "chaos-conservation" s
   | exception e ->
     fs :=
       { f_check = "chaos-conservation";
         f_detail = "chaos run escaped with " ^ Printexc.to_string e }
       :: !fs);
  confirm_replay fs "chaos-conservation" nl ~scanned !chaos_tests;
  List.rev !fs

(* 6. Guided differential: per fault on the full-scan view (every DFF a
   pseudo-PI, its D input a pseudo-PO), a guided verdict may only
   improve on the unguided one, and a guided test must replay. *)
let check_guided_diff ~step_budget ~seed:_ nl =
  let faults = Fault.collapsed nl in
  let fs = ref [] in
  let dffs = Netlist.dffs nl in
  let assignable = Netlist.pis nl @ dffs in
  let observe =
    Netlist.pos nl @ List.map (fun d -> (Netlist.fanin nl d).(0)) dffs
  in
  let verdict = function
    | Podem.Test _ -> "test"
    | Podem.Untestable -> "untestable"
    | Podem.Aborted -> "aborted"
  in
  let checker () =
    Hft_robust.Deadline.checker
      (Hft_robust.Deadline.make ~steps:step_budget)
  in
  let bad detail = fs := { f_check = "guided-diff"; f_detail = detail } :: !fs in
  List.iter
    (fun f ->
      let unguided, _ =
        Podem.generate ~backtrack_limit:30 ~check:(checker ()) nl
          ~faults:[ f ] ~assignable ~observe
      in
      let guided, _ =
        Podem.generate ~backtrack_limit:30 ~check:(checker ())
          ~guidance:(Hft_analysis.Guidance.provide nl ~observe ~faults:[ f ])
          nl ~faults:[ f ] ~assignable ~observe
      in
      let ku = verdict unguided and kg = verdict guided in
      let repro () = Fault.to_string nl f in
      (match (unguided, guided) with
       | Podem.Test _, Podem.Untestable | Podem.Untestable, Podem.Test _ ->
         bad
           (Printf.sprintf "fault %s unguided=%s guided=%s" (repro ()) ku kg)
       | _, Podem.Aborted when unguided <> Podem.Aborted ->
         bad
           (Printf.sprintf "fault %s regressed to aborted (unguided=%s)"
              (repro ()) ku)
       | _ -> ());
      match guided with
      | Podem.Test assign ->
        let det =
          Fsim.detect_groups nl ~assignment:assign ~observe
            [ Fsim.group nl [ f ] ]
        in
        if not det.(0) then
          bad (Printf.sprintf "guided test for %s fails replay" (repro ()))
      | _ -> ())
    faults;
  List.rev !fs

let dispatch ~canary ~step_budget ~seed nl = function
  | "fsim-diff" -> check_fsim_diff ~seed nl
  | "atpg-diff" -> check_atpg_diff ~canary ~step_budget ~seed nl
  | "par-diff" -> check_par_diff ~step_budget ~seed nl
  | "replay-confirm" -> check_replay_confirm ~step_budget ~seed nl
  | "chaos-conservation" -> check_chaos_conservation ~step_budget ~seed nl
  | "guided-diff" -> check_guided_diff ~step_budget ~seed nl
  | name -> invalid_arg ("Hft_fuzz.Oracle: unknown check " ^ name)

let run_check ?(canary = false) ?(step_budget = default_step_budget) ~name
    ~seed nl =
  match
    Hft_robust.Supervisor.guard ~name:("fuzz." ^ name) (fun () ->
        dispatch ~canary ~step_budget ~seed nl name)
  with
  | Ok fs -> (fs, 0)
  | Error fail ->
    ( [ { f_check = name;
          f_detail = "crash: " ^ Hft_robust.Failure.to_string fail } ],
      1 )

let run ?(canary = false) ?(step_budget = default_step_budget) ~seed nl =
  let escalations = ref 0 in
  let findings =
    List.concat_map
      (fun name ->
        let fs, esc = run_check ~canary ~step_budget ~name ~seed nl in
        escalations := !escalations + esc;
        fs)
      check_names
  in
  { r_findings = findings; r_escalations = !escalations }
