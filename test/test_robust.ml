(* Hft_robust: typed failures, deterministic chaos, cooperative
   deadlines, the supervisor retry ladder, validation diagnostics,
   campaign-tape round-trips — and the end-to-end guarantees they buy a
   campaign: chaos never crashes it, and a killed-then-resumed run is
   bit-identical to an uninterrupted one. *)

open Hft_robust
open Hft_cdfg
open Hft_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_obs f =
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
    (fun () -> Hft_obs.with_enabled true f)

(* ------------------------------------------------------------------ *)
(* Chaos harness                                                      *)
(* ------------------------------------------------------------------ *)

(* Which of [n] checks trip, as a sorted index list. *)
let trip_profile cfg n =
  Chaos.with_config cfg @@ fun () ->
  List.filter_map
    (fun i ->
      match Chaos.check Chaos.Podem with
      | () -> None
      | exception Chaos.Injection _ -> Some i)
    (List.init n (fun i -> i))

let test_chaos_deterministic () =
  let cfg =
    { Chaos.seed = 7; prob = 0.3; sites = [ Chaos.Podem ]; arm_after = 3 }
  in
  let a = trip_profile cfg 50 and b = trip_profile cfg 50 in
  check "same seed, same trips" true (a = b);
  check "some checks trip" true (a <> []);
  check "arm_after shields the first checks" true
    (List.for_all (fun i -> i >= 3) a);
  let c = trip_profile { cfg with seed = 8 } 50 in
  check "different seed, different trips" true (a <> c)

let test_chaos_sites_and_restore () =
  check "disabled outside" false (Chaos.enabled ());
  let cfg =
    { Chaos.seed = 1; prob = 1.0; sites = [ Chaos.Fsim ]; arm_after = 0 }
  in
  Chaos.with_config cfg (fun () ->
      check "enabled inside" true (Chaos.enabled ());
      (* Unarmed site never trips even at prob 1. *)
      Chaos.check Chaos.Podem;
      check "armed site trips" true
        (match Chaos.check Chaos.Fsim with
         | () -> false
         | exception Chaos.Injection { site; seq } ->
           site = "fsim" && seq = 1));
  check "restored after" false (Chaos.enabled ());
  (* Restore holds when the body raises, too. *)
  (try Chaos.with_config cfg (fun () -> raise Exit) with Exit -> ());
  check "restored after raise" false (Chaos.enabled ())

(* ------------------------------------------------------------------ *)
(* Deadlines                                                          *)
(* ------------------------------------------------------------------ *)

let test_deadline_steps () =
  let d = Deadline.make ~steps:5 in
  for _ = 1 to 5 do
    Deadline.tick d
  done;
  check "expires one past the limit" true
    (match Deadline.tick d with
     | () -> false
     | exception Deadline.Expired { steps; limit } -> steps = 6 && limit = 5
     | exception _ -> false);
  (* checker is just tick in hook shape. *)
  let d2 = Deadline.make ~steps:1 in
  let hook = Deadline.checker d2 in
  hook ();
  check "checker raises like tick" true
    (match hook () with
     | () -> false
     | exception Deadline.Expired _ -> true)

(* ------------------------------------------------------------------ *)
(* Supervisor: protect + ladder                                       *)
(* ------------------------------------------------------------------ *)

let test_protect_classifies () =
  check "ok passes through" true
    (Supervisor.protect ~site:Chaos.Podem (fun () -> 42) = Ok 42);
  check "step expiry -> Budget_exhausted" true
    (match
       Supervisor.protect ~site:Chaos.Fsim (fun () ->
           raise (Deadline.Expired { steps = 9; limit = 8 }))
     with
     | Error (Failure.Budget_exhausted { site; steps; limit }) ->
       site = "fsim" && steps = 9 && limit = 8
     | _ -> false);
  check "other exception -> Engine_exception" true
    (match
       Supervisor.protect ~site:Chaos.Collapse (fun () -> failwith "boom")
     with
     | Error (Failure.Engine_exception msg) ->
       (* rendered, never re-raised *)
       String.length msg > 0
     | _ -> false);
  check "injection -> Injected" true
    (Chaos.with_config
       { Chaos.seed = 3; prob = 1.0; sites = [ Chaos.Podem ]; arm_after = 0 }
       (fun () ->
         match Supervisor.protect ~site:Chaos.Podem (fun () -> 0) with
         | Error (Failure.Injected { site = "podem"; seq = 1 }) -> true
         | _ -> false))

let test_ladder_budgets () =
  with_obs @@ fun () ->
  let budgets = ref [] in
  let r =
    Supervisor.ladder Supervisor.default ~site:Chaos.Podem ~budget:10
      (fun ~budget ~check:_ ->
        budgets := budget :: !budgets;
        if budget < 40 then failwith "not yet" else budget)
  in
  check "succeeds on the final rung" true (r = Ok 40);
  check "budgets double per rung" true (List.rev !budgets = [ 10; 20; 40 ]);
  check_int "two retries counted" 2
    (Hft_obs.Registry.count "hft.robust.retries");
  check_int "final_budget matches the ladder" 40
    (Supervisor.final_budget Supervisor.default ~budget:10);
  (* Exhaustion returns the last failure. *)
  let attempts = ref 0 in
  let r2 =
    Supervisor.ladder Supervisor.default ~site:Chaos.Podem ~budget:1
      (fun ~budget:_ ~check:_ ->
        incr attempts;
        failwith "always")
  in
  check_int "1 + retries attempts" 3 !attempts;
  check "exhausted ladder reports the failure" true
    (match r2 with Error (Failure.Engine_exception _) -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let test_validation_diag () =
  (match Validation.fail ~site:"netlist.add" ~hint:"wire it" "bad arity" with
   | _ -> Alcotest.fail "fail must raise"
   | exception Validation.Invalid d ->
     check_str "site" "netlist.add" d.Validation.site;
     check_str "message" "bad arity" d.Validation.message;
     check "hint" true (d.Validation.hint = Some "wire it");
     check_str "to_string"
       "netlist.add: bad arity (hint: wire it)"
       (Validation.to_string d));
  check "netlist checks raise typed diagnostics" true
    (let nl = Hft_gate.Netlist.create ~name:"t" () in
     match Hft_gate.Netlist.add nl Hft_gate.Netlist.And [||] with
     | _ -> false
     | exception Validation.Invalid { site = "netlist.add"; _ } -> true)

(* ------------------------------------------------------------------ *)
(* Campaign tapes                                                     *)
(* ------------------------------------------------------------------ *)

let tmp_tape () = Filename.temp_file "hft_tape" ".jsonl"

let mk_test id =
  { Hft_obs.Ledger.lt_id = id; lt_frames = 2; lt_rows = Some (2 * id, 2);
    lt_vectors = [| [| true; false; true |]; [| false; false; true |] |];
    lt_scan = [| true; true |] }

let mk_row cls rep res =
  { Hft_obs.Ledger.lr_class = cls; lr_rep = rep; lr_members = [ rep ];
    lr_resolution = res; lr_fsim_events = 7 * cls; lr_implications = 3;
    lr_backtracks = cls; lr_guided_cuts = 0 }

let write_tape path ~meta records =
  let w = Checkpoint.Tape.create ~path ~schema:Hft_obs.Ledger.schema ~meta in
  List.iter
    (fun r -> Checkpoint.Tape.emit w (Hft_obs.Ledger.record_to_json r))
    records;
  Checkpoint.Tape.close w

let load_tape path =
  Hft_obs.Ledger.of_jsonl (In_channel.with_open_bin path In_channel.input_all)

let test_checkpoint_roundtrip () =
  let path = tmp_tape () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let meta = [ ("bench", Hft_util.Json.String "x"); ("n", Hft_util.Json.Int 4) ] in
  let rows =
    [ mk_row 1 "n3/SA1"
        (Hft_obs.Ledger.Podem_detected
           { test = 0; backtracks = 5; frames = 2 });
      mk_row 2 "n9/SA0"
        (Hft_obs.Ledger.Aborted
           { budget = 80; frames = 2;
             reason = Some "timeout(podem: 1.10s > 1.00s)" });
      mk_row 0 "n2/SA0" (Hft_obs.Ledger.Proved_untestable { frames = 2 }) ]
  in
  write_tape path ~meta
    ((Hft_obs.Ledger.Test (mk_test 0)
      :: List.map (fun r -> Hft_obs.Ledger.Class r) rows)
     @ [ Hft_obs.Ledger.End { classes = 3; tests = 1 } ]);
  match load_tape path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok t ->
    check "meta survives" true (t.Hft_obs.Ledger.tp_meta = meta);
    check "test round-trips, vectors included" true
      (t.Hft_obs.Ledger.tp_tests = [ mk_test 0 ]);
    check "rows round-trip in class order, charges included" true
      (t.Hft_obs.Ledger.tp_rows
       = List.sort
           (fun (a : Hft_obs.Ledger.row) b -> compare a.lr_class b.lr_class)
           rows)

let test_checkpoint_repairs_tail () =
  (* An uncommitted final test transaction — the test line landed but
     the committing podem_detected row did not — rolls back, together
     with any drop rows naming it. *)
  let path = tmp_tape () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_tape path ~meta:[]
    [ Hft_obs.Ledger.Test (mk_test 0);
      Hft_obs.Ledger.Class
        (mk_row 0 "a"
           (Hft_obs.Ledger.Podem_detected
              { test = 0; backtracks = 1; frames = 1 }));
      Hft_obs.Ledger.Test (mk_test 1);
      Hft_obs.Ledger.Class
        (mk_row 1 "b" (Hft_obs.Ledger.Drop_detected { test = 1 })) ];
  (match load_tape path with
   | Error msg -> Alcotest.failf "load failed: %s" msg
   | Ok t ->
     check "uncommitted test dropped" true
       (t.Hft_obs.Ledger.tp_tests = [ mk_test 0 ]);
     check "its drop row dropped too" true
       (List.for_all
          (fun (r : Hft_obs.Ledger.row) -> r.lr_rep <> "b")
          t.Hft_obs.Ledger.tp_rows));
  (* A torn (half-written) final line is likewise tolerated. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"test\":2,\"frames\":2,\"vec";
  close_out oc;
  (match load_tape path with
   | Error msg -> Alcotest.failf "torn tail not tolerated: %s" msg
   | Ok t ->
     check_int "torn line ignored" 1 (List.length t.Hft_obs.Ledger.tp_tests));
  (* Mid-file damage is corruption, not an interrupted run. *)
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let oc = open_out path in
  List.iteri
    (fun i l ->
      if l <> "" then begin
        output_string oc (if i = 1 then "garbage" else l);
        output_char oc '\n'
      end)
    lines;
  close_out oc;
  check "mid-file garbage is an error" true
    (match load_tape path with Error _ -> true | Ok _ -> false);
  (* The whole tape is validated before the rollback: damage in the
     uncommitted tail is still damage. *)
  write_tape path ~meta:[]
    [ Hft_obs.Ledger.Test (mk_test 0);
      Hft_obs.Ledger.Class
        (mk_row 0 "a"
           (Hft_obs.Ledger.Podem_detected
              { test = 0; backtracks = 1; frames = 1 }));
      Hft_obs.Ledger.Test (mk_test 2) ];
  check "a test out of sequence in the uncommitted tail is an error" true
    (match load_tape path with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Campaign-level guarantees                                          *)
(* ------------------------------------------------------------------ *)

let fig1_result () =
  let g = Paper_fig1.graph () in
  Flow.synthesize ~width:4 Flow.Partial_scan g

let run_campaign ?supervisor ?tape ?resume ?jobs r =
  Flow.test_campaign ~backtrack_limit:20 ~max_frames:2 ~sample:4 ~seed:7
    ~n_patterns:32 ?supervisor ?tape ?resume ?jobs r

(* Every outcome a campaign produces: per-fault verdicts, stored
   patterns, the final detected set, the forensics waterfall.  Effort
   counters (decisions/backtracks/implications) are deliberately
   excluded — a resumed campaign does not redo the work its tape
   already recorded, so only outcomes can be compared across runs. *)
let fingerprint (c : Flow.campaign) =
  let s = c.Flow.c_atpg in
  ( ( s.Hft_gate.Seq_atpg.detected, s.untestable, s.aborted, s.total ),
    c.Flow.c_patterns_stored,
    List.sort compare c.Flow.c_fsim.Hft_gate.Fsim.detected,
    List.sort compare (Hft_obs.Ledger.waterfall ()) )

let test_supervisor_bit_identical () =
  (* Supervision on, chaos off: the happy path must not perturb the
     engines — same stats, patterns, coverage, waterfall. *)
  let r = fig1_result () in
  with_obs @@ fun () ->
  let c_on = run_campaign r in
  let on = (c_on.Flow.c_atpg, fingerprint c_on) in
  Hft_obs.reset ();
  let c_off = run_campaign ~supervisor:None r in
  let off = (c_off.Flow.c_atpg, fingerprint c_off) in
  check "supervised run is bit-identical (effort counters included)" true
    (on = off)

let test_chaos_never_crashes () =
  (* Engine-site injections armed hot: the campaign must terminate with
     a conserved waterfall, never escape with an exception. *)
  let r = fig1_result () in
  List.iter
    (fun seed ->
      with_obs @@ fun () ->
      let c =
        Chaos.with_config
          { Chaos.seed;
            prob = 0.25;
            sites = [ Chaos.Podem; Chaos.Fsim; Chaos.Collapse ];
            arm_after = 0 }
          (fun () -> run_campaign r)
      in
      let wf = Hft_obs.Ledger.waterfall () in
      check_int
        (Printf.sprintf "seed %d: waterfall classes conserve" seed)
        (Hft_obs.Ledger.n_classes ())
        (List.fold_left (fun acc (_, (cl, _)) -> acc + cl) 0 wf);
      check_int
        (Printf.sprintf "seed %d: waterfall faults conserve" seed)
        (List.length c.Flow.c_faults)
        (List.fold_left (fun acc (_, (_, fa)) -> acc + fa) 0 wf))
    [ 11; 23; 37 ]

let with_tmp f =
  let path = tmp_tape () in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* One taped campaign on a fresh ledger: its outcomes, what it restored,
   and its ledger rows. *)
let taped_run ?jobs ?resume path r =
  with_obs @@ fun () ->
  let c = run_campaign ~tape:path ?resume ?jobs r in
  ( fingerprint c,
    (c.Flow.c_resumed_classes, c.Flow.c_resumed_tests),
    Hft_obs.Ledger.rows () )

(* The same campaign killed by chaos at a serialisation boundary. *)
let killed_run ?jobs ?(arm_after = 4) path r =
  with_obs @@ fun () ->
  match
    Chaos.with_config
      { Chaos.seed = 5; prob = 1.0; sites = [ Chaos.Serialize ]; arm_after }
      (fun () -> run_campaign ~tape:path ?jobs r)
  with
  | _ -> false
  | exception Chaos.Injection _ -> true

let loaded path =
  match load_tape path with
  | Ok t -> t
  | Error msg -> Alcotest.failf "tape does not load: %s" msg

let test_checkpoint_resume_bit_identical () =
  (* Kill the campaign at a serialisation boundary via chaos, resume
     chaos-off, and compare against an uninterrupted reference run. *)
  let r = fig1_result () in
  let reference, _, _ = with_tmp (fun path -> taped_run path r) in
  with_tmp @@ fun path ->
  check "chaos killed the campaign mid-run" true (killed_run path r);
  let resumed, (classes, tests), _ = taped_run ~resume:true path r in
  check "resumed run restored prior work" true (classes > 0 || tests > 0);
  check "resumed run is bit-identical to the uninterrupted one" true
    (resumed = reference)

let test_resume_restores_charges () =
  (* A row is taped when its class resolves, charges complete, and
     resume restores it whole: every row resolved before the kill
     equals the uninterrupted run's, in the tape and after resume. *)
  let r = fig1_result () in
  let _, _, reference = with_tmp (fun path -> taped_run path r) in
  with_tmp @@ fun path ->
  ignore (killed_run path r : bool);
  let killed = (loaded path).Hft_obs.Ledger.tp_rows in
  check "the kill left resolved rows" true (killed <> []);
  let _, _, resumed = taped_run ~resume:true path r in
  List.iter
    (fun (k : Hft_obs.Ledger.row) ->
      let expect = List.nth reference k.lr_class in
      check
        (Printf.sprintf "class %d: taped row = uninterrupted row" k.lr_class)
        true (k = expect);
      check
        (Printf.sprintf "class %d: restored row = uninterrupted row" k.lr_class)
        true
        (List.nth resumed k.lr_class = expect))
    killed

let test_killed_tape_prefix () =
  (* Killed inside a test transaction (the drop rows landed, the commit
     did not), the tape loads its committed prefix: the open test and
     its drop rows roll back, every remaining test is committed, and the
     waterfall tallies exactly the remaining rows. *)
  let r = fig1_result () in
  let _, _, reference = with_tmp (fun path -> taped_run path r) in
  with_tmp @@ fun path ->
  check "chaos killed the campaign" true (killed_run ~arm_after:7 path r);
  let t = loaded path in
  let rows = t.Hft_obs.Ledger.tp_rows and tests = t.Hft_obs.Ledger.tp_tests in
  let raw =
    List.length
      (String.split_on_char '\n'
         (String.trim (In_channel.with_open_bin path In_channel.input_all)))
  in
  check "an uncommitted transaction rolled back" true
    (raw - 1 > List.length rows + List.length tests);
  let commits id (row : Hft_obs.Ledger.row) =
    match row.lr_resolution with
    | Hft_obs.Ledger.Podem_detected { test; _ }
    | Hft_obs.Ledger.Salvaged { test; _ } -> test = id
    | _ -> false
  in
  check "every test on the loaded tape is committed" true
    (List.for_all
       (fun (tt : Hft_obs.Ledger.test) -> List.exists (commits tt.lt_id) rows)
       tests);
  check "every row names a test on the loaded tape" true
    (List.for_all
       (fun (row : Hft_obs.Ledger.row) ->
         match Hft_obs.Ledger.resolution_test row.lr_resolution with
         | Some id -> id < List.length tests
         | None -> true)
       rows);
  check "waterfall tallies the committed rows" true
    (t.Hft_obs.Ledger.tp_waterfall = Hft_obs.Ledger.waterfall ~rows ());
  check "fewer classes than the finished run" true
    (List.length rows < List.length reference)

let test_resume_rewrite_prefixes () =
  (* Resume keeps the restored prefix in file order, and every prefix
     of it is itself a tape a kill could leave: each resumes
     bit-identically. *)
  let r = fig1_result () in
  let reference, _, _ = with_tmp (fun path -> taped_run path r) in
  with_tmp @@ fun path ->
  ignore (killed_run ~arm_after:7 path r : bool);
  let _, (classes, tests), _ = taped_run ~resume:true path r in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
  in
  check "something was rewritten" true (classes + tests > 0);
  for k = 1 to 1 + classes + tests do
    with_tmp @@ fun cut ->
    Out_channel.with_open_bin cut (fun oc ->
        List.iteri
          (fun i l -> if i < k then output_string oc (l ^ "\n"))
          lines);
    let resumed, _, _ = taped_run ~resume:true cut r in
    check (Printf.sprintf "resume from the first %d lines" k) true
      (resumed = reference)
  done

(* The fixture killed at its 40th record append, then resumed with a
   hard link kept to the killed tape: the killed tape's bytes and its
   committed line count (header included), the resumed tape's bytes,
   and what the link holds after the resume.  A first resume, whose
   compaction a directory in the way makes fail, must leave the tape
   as it was. *)
let resumed_after_kill r =
  let read p = In_channel.with_open_bin p In_channel.input_all in
  with_tmp @@ fun path ->
  check "chaos killed the campaign" true (killed_run ~arm_after:40 path r);
  let killed = read path in
  let t = loaded path in
  let committed =
    1 + List.length t.Hft_obs.Ledger.tp_rows
    + List.length t.Hft_obs.Ledger.tp_tests
  in
  Sys.mkdir (path ^ ".compact") 0o755;
  check "a blocked compaction fails the resume" true
    (match taped_run ~resume:true path r with
     | _ -> false
     | exception Sys_error _ -> true);
  Sys.rmdir (path ^ ".compact");
  check_str "a failed compaction leaves the tape as it was" killed (read path);
  let link = path ^ ".link" in
  Unix.link path link;
  Fun.protect ~finally:(fun () -> Sys.remove link) @@ fun () ->
  ignore (taped_run ~resume:true path r);
  (killed, committed, read path, read link)

let test_resume_keeps_prefix () =
  let killed, committed, resumed, _ = resumed_after_kill (fig1_result ()) in
  let first text =
    List.filteri (fun i _ -> i < committed) (String.split_on_char '\n' text)
  in
  check "the resumed tape starts with the killed tape's committed lines"
    true
    (first resumed = first killed)

let test_resume_not_in_place () =
  let killed, _, _, linked = resumed_after_kill (fig1_result ()) in
  check_str "the pre-resume inode still holds the killed tape" killed linked

let test_resume_rejects_foreign_tapes () =
  (* hft-ckpt/1 files have no reader, and a tape naming a fault outside
     the sample cannot rebuild its tests: both are bad input. *)
  let r = fig1_result () in
  let rejected path =
    with_obs @@ fun () ->
    match run_campaign ~tape:path ~resume:true r with
    | _ -> false
    | exception Validation.Invalid _ -> true
  in
  with_tmp @@ fun path ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        "{\"schema\":\"hft-ckpt/1\",\"meta\":{}}\n\
         {\"kind\":\"class\",\"rep\":\"n1/SA0\",\"resolution\":\
         {\"outcome\":\"untestable\",\"frames\":1}}\n");
  check "an hft-ckpt/1 file is rejected" true (rejected path);
  ignore (taped_run path r);
  let renamed = ref false in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.map (fun l ->
           match Hft_util.Json.parse l with
           | Ok (Hft_util.Json.Obj fields)
             when (not !renamed) && List.mem_assoc "class" fields
                  && Hft_util.Json.member_int "test"
                       (List.assoc "resolution" fields) <> None ->
             renamed := true;
             Hft_util.Json.to_string
               (Hft_util.Json.Obj
                  (( "members",
                     Hft_util.Json.List [ Hft_util.Json.String "x/SA0" ] )
                   :: List.remove_assoc "members" fields))
           | _ -> l)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.concat "\n" lines));
  check "a detecting row was edited" true !renamed;
  check "an unknown member is rejected" true (rejected path)

let test_checkpoint_resume_parallel_torn () =
  (* The same kill-and-resume contract under the domain pool: chaos
     kills a -j4 campaign at a serialisation boundary, the process dies
     mid-write (simulated by appending a half line to the checkpoint),
     and a -j4 resume must repair the torn tail and land bit-identical
     to an uninterrupted -j4 run. *)
  let r = fig1_result () in
  let jobs = 4 in
  let reference, _, _ = with_tmp (fun path -> taped_run ~jobs path r) in
  with_tmp @@ fun path ->
  check "chaos killed the -j4 campaign mid-run" true (killed_run ~jobs path r);
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"test\":9,\"frames\":2,\"vec";
  close_out oc;
  let resumed, _, _ = taped_run ~resume:true ~jobs path r in
  check "-j4 torn-tail resume is bit-identical to uninterrupted -j4" true
    (resumed = reference);
  (* And the jobs count is not part of the tape identity: the
     now-complete file resumes sequentially, restoring every class to
     the same outcomes. *)
  let again, _, _ = taped_run ~resume:true path r in
  check "completed tape resumes at -j1 to the same outcomes" true
    (again = reference)

let test_checkpoint_meta_mismatch () =
  let r = fig1_result () in
  with_tmp @@ fun path ->
  with_obs @@ fun () ->
  ignore (run_campaign ~tape:path r);
  Hft_obs.reset ();
  check "fingerprint mismatch rejects the resume" true
    (match
       Flow.test_campaign ~backtrack_limit:21 ~max_frames:2 ~sample:4 ~seed:7
         ~n_patterns:32 ~tape:path ~resume:true r
     with
     | _ -> false
     | exception Validation.Invalid _ -> true)

let () =
  Alcotest.run "hft_robust"
    [
      ( "chaos",
        [
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "sites + restore" `Quick
            test_chaos_sites_and_restore;
        ] );
      ( "deadline",
        [ Alcotest.test_case "steps" `Quick test_deadline_steps ] );
      ( "supervisor",
        [
          Alcotest.test_case "protect classifies" `Quick test_protect_classifies;
          Alcotest.test_case "ladder budgets" `Quick test_ladder_budgets;
        ] );
      ( "validation",
        [ Alcotest.test_case "diagnostics" `Quick test_validation_diag ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "tail repair" `Quick test_checkpoint_repairs_tail;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "supervised = bare (chaos off)" `Quick
            test_supervisor_bit_identical;
          Alcotest.test_case "chaos never crashes" `Quick
            test_chaos_never_crashes;
          Alcotest.test_case "kill + resume bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "kill + resume restores charges" `Quick
            test_resume_restores_charges;
          Alcotest.test_case "killed tape loads its committed prefix" `Quick
            test_killed_tape_prefix;
          Alcotest.test_case "resume rewrite keeps committed prefixes" `Quick
            test_resume_rewrite_prefixes;
          Alcotest.test_case "resume keeps the committed prefix" `Quick
            test_resume_keeps_prefix;
          Alcotest.test_case "resume never rewrites the tape in place" `Quick
            test_resume_not_in_place;
          Alcotest.test_case "resume rejects foreign tapes" `Quick
            test_resume_rejects_foreign_tapes;
          Alcotest.test_case "-j4 kill + torn tail + resume" `Quick
            test_checkpoint_resume_parallel_torn;
          Alcotest.test_case "resume fingerprint mismatch" `Quick
            test_checkpoint_meta_mismatch;
        ] );
    ]
