open Hft_cdfg
open Hft_gate
open Hft_scan

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_datapath () =
  let g = Bench_suite.diffeq () in
  Hft_hls.Datapath_gen.conventional ~width:4
    ~resources:[ (Op.Multiplier, 2); (Op.Alu, 1); (Op.Comparator, 1) ]
    g

(* ------------------------------------------------------------------ *)
(* Chain                                                              *)
(* ------------------------------------------------------------------ *)

let test_chain_shift_integrity () =
  let d = small_datapath () in
  let ex = Expand.of_datapath d in
  let chain = Full_scan.insert ex.Expand.netlist in
  check "chain shifts correctly" true (Chain.verify_shift chain)

let test_chain_test_cycles () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let f1 = Netlist.add nl Netlist.Dff [| a |] in
  let f2 = Netlist.add nl Netlist.Dff [| f1 |] in
  let _ = Netlist.add nl Netlist.Po [| f2 |] in
  let chain = Chain.insert nl [ f1; f2 ] in
  (* 3 tests on a 2-cell chain: 3*(2+1) + 2 = 11 cycles. *)
  check_int "test cycles" 11 (Chain.test_cycles chain ~n_tests:3)

let test_chain_rejects_non_dff () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  check "non-dff rejected" true
    (match Chain.insert nl [ a ] with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scan-view fault simulation                                         *)
(* ------------------------------------------------------------------ *)

let test_comb_scan_observes_state_inputs () =
  (* [g = not a] feeds only a DFF: invisible to plain combinational
     fault simulation (no PO in its cone), but the scan capture
     observes f's D input. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.Not [| a |] in
  let f = Netlist.add nl ~name:"f" Netlist.Dff [| g |] in
  let h = Netlist.add nl Netlist.Buf [| f |] in
  let _y = Netlist.add nl ~name:"y" Netlist.Po [| h |] in
  let fault = { Fault.node = g; pin = None; stuck = false } in
  let plain = Fsim.comb nl ~patterns:[| [| false |] |] [ fault ] in
  check_int "invisible without scan" 0 (List.length plain.Fsim.detected);
  (* Pattern row: PI column then the scan load of [f]. *)
  let patterns = [| [| false; false |] |] in
  let naive =
    Fsim.comb_scan ~strategy:Fsim.Naive nl ~scanned:[ f ] ~patterns [ fault ]
  in
  let cone =
    Fsim.comb_scan ~strategy:Fsim.Cone nl ~scanned:[ f ] ~patterns [ fault ]
  in
  check_int "scan capture detects" 1 (List.length naive.Fsim.detected);
  check "strategies agree" true
    (naive.Fsim.detected = cone.Fsim.detected)

(* ------------------------------------------------------------------ *)
(* Full scan ATPG                                                     *)
(* ------------------------------------------------------------------ *)

let test_full_scan_drop_matches_naive () =
  (* Exact equality on a fully-testable block: with no aborts the
     strategies must agree verdict for verdict — dropping only removes
     faults a generated test provably detects, and equivalence class
     members share their representative's verdict. *)
  let blk = Expand.comb_block ~width:4 [ Op.Add ] in
  let nl = blk.Expand.b_netlist in
  (* Register the outputs so the scan view has cells: PO drivers become
     capture points, DFF outputs pseudo PIs — still fully testable. *)
  List.iter
    (fun po ->
      let src = (Netlist.fanin nl po).(0) in
      let f = Netlist.add nl Netlist.Dff [| src |] in
      Netlist.set_fanin nl po 0 f)
    (Netlist.pos nl);
  let faults = Fault.universe nl in
  let naive =
    Full_scan.atpg ~backtrack_limit:5000 ~strategy:Seq_atpg.Naive nl ~faults
  in
  let drop =
    Full_scan.atpg ~backtrack_limit:5000 ~strategy:Seq_atpg.Drop nl ~faults
  in
  check_int "naive aborts none" 0 naive.Full_scan.stats.Seq_atpg.aborted;
  check_int "drop aborts none" 0 drop.Full_scan.stats.Seq_atpg.aborted;
  check_int "detected equal" naive.Full_scan.stats.Seq_atpg.detected
    drop.Full_scan.stats.Seq_atpg.detected;
  check_int "untestable equal" naive.Full_scan.stats.Seq_atpg.untestable
    drop.Full_scan.stats.Seq_atpg.untestable;
  check "drop produces no more tests" true
    (List.length drop.Full_scan.tests <= List.length naive.Full_scan.tests);
  check "drop effort no worse" true
    (drop.Full_scan.stats.Seq_atpg.implications
     <= naive.Full_scan.stats.Seq_atpg.implications)

let test_full_scan_drop_sound_with_aborts () =
  (* On the real datapath a couple of hard faults abort at any sane
     backtrack limit; with aborts present only bounds hold: every fault
     Drop reports detected is truly testable (at most the testable ones
     Naive aborted more), and a Naive detection can only go missing into
     Drop's aborted bucket. *)
  let d = small_datapath () in
  let ex = Expand.of_datapath d in
  let nl = ex.Expand.netlist in
  let rng = Hft_util.Rng.create 21 in
  let faults =
    Fault.collapsed nl |> List.filter (fun _ -> Hft_util.Rng.int rng 20 = 0)
  in
  let naive =
    Full_scan.atpg ~backtrack_limit:300 ~strategy:Seq_atpg.Naive nl ~faults
  in
  let drop =
    Full_scan.atpg ~backtrack_limit:300 ~strategy:Seq_atpg.Drop nl ~faults
  in
  let sn = naive.Full_scan.stats and sd = drop.Full_scan.stats in
  check "upper bound" true
    (sd.Seq_atpg.detected
     <= sn.Seq_atpg.detected + sn.Seq_atpg.aborted);
  check "lower bound" true
    (sd.Seq_atpg.detected >= sn.Seq_atpg.detected - sd.Seq_atpg.aborted);
  check "drop effort no worse" true
    (sd.Seq_atpg.implications <= sn.Seq_atpg.implications)

let test_full_scan_coverage () =
  let d = small_datapath () in
  let ex = Expand.of_datapath d in
  let nl = ex.Expand.netlist in
  let rng = Hft_util.Rng.create 4 in
  (* Sample the fault list to keep runtime in check. *)
  let faults =
    Fault.collapsed nl
    |> List.filter (fun _ -> Hft_util.Rng.int rng 10 = 0)
  in
  let r = Full_scan.atpg ~backtrack_limit:300 nl ~faults in
  let s = r.Full_scan.stats in
  check "full-scan efficiency > 95%" true
    (float_of_int (s.Seq_atpg.detected + s.Seq_atpg.untestable)
     > 0.95 *. float_of_int s.Seq_atpg.total);
  check "tests produced" true (List.length r.Full_scan.tests > 0)

let with_obs f =
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
    (fun () -> Hft_obs.with_enabled true f)

let fig1_netlist which =
  (Expand.of_datapath (snd (Hft_core.Fig1_exp.datapath which))).Expand.netlist

let tests_digest tests =
  List.map
    (fun t ->
      String.concat ","
        (List.map (fun (v, b) -> Printf.sprintf "%d=%d" v (Bool.to_int b)) t))
    tests
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* One line per campaign: stats, test count, digest of the test list and
   the forensics waterfall. *)
let full_scan_fingerprint ?jobs nl =
  with_obs @@ fun () ->
  let r =
    Full_scan.atpg ~backtrack_limit:200 ?jobs nl ~faults:(Fault.collapsed nl)
  in
  let s = r.Full_scan.stats in
  Printf.sprintf
    "det=%d unt=%d abo=%d tot=%d dec=%d btk=%d imp=%d tests=%d %s %s"
    s.Seq_atpg.detected s.Seq_atpg.untestable s.Seq_atpg.aborted
    s.Seq_atpg.total s.Seq_atpg.decisions s.Seq_atpg.backtracks
    s.Seq_atpg.implications (List.length r.Full_scan.tests)
    (tests_digest r.Full_scan.tests)
    (Hft_util.Json.to_string
       (Hft_obs.Ledger.waterfall_json (Hft_obs.Ledger.waterfall s.rows)))

(* Golden full-scan campaigns, recorded from the dedicated combinational
   engine full scan had before it became a one-frame view of
   {!Seq_atpg.campaign}: the move must not shift a single verdict, test
   or effort count. *)
let test_full_scan_golden () =
  let tseng =
    (Hft_core.Flow.synthesize_conventional ~width:4 (Bench_suite.tseng ()))
      .Hft_core.Flow.datapath
  in
  List.iter
    (fun (name, nl, expected) ->
      Alcotest.(check string) name expected (full_scan_fingerprint nl))
    [ ( "fig1b", fig1_netlist Hft_core.Fig1_exp.B,
        "det=1600 unt=0 abo=0 tot=1600 dec=1357 btk=32 imp=1536 tests=147 \
         60e5c097d7e9e1e06d305d20ee63d02a \
         {\"classes\":1220,\"faults\":1600,\
         \"drop_detected\":{\"classes\":1073,\"faults\":1399},\
         \"podem_detected\":{\"classes\":147,\"faults\":201},\
         \"salvaged\":{\"classes\":0,\"faults\":0},\
         \"aborted\":{\"classes\":0,\"faults\":0},\
         \"untestable\":{\"classes\":0,\"faults\":0},\
         \"never_targeted\":{\"classes\":0,\"faults\":0}}" );
      ( "fig1c", fig1_netlist Hft_core.Fig1_exp.C,
        "det=1534 unt=0 abo=0 tot=1534 dec=1314 btk=33 imp=1494 tests=147 \
         7045080538e0299ea5579f4a44987fe9 \
         {\"classes\":1186,\"faults\":1534,\
         \"drop_detected\":{\"classes\":1039,\"faults\":1331},\
         \"podem_detected\":{\"classes\":147,\"faults\":203},\
         \"salvaged\":{\"classes\":0,\"faults\":0},\
         \"aborted\":{\"classes\":0,\"faults\":0},\
         \"untestable\":{\"classes\":0,\"faults\":0},\
         \"never_targeted\":{\"classes\":0,\"faults\":0}}" );
      ( "tseng", (Expand.of_datapath tseng).Expand.netlist,
        "det=1172 unt=8 abo=0 tot=1180 dec=1799 btk=230 imp=2087 tests=140 \
         71d8afc331e9ce6c05566715883a82c9 \
         {\"classes\":840,\"faults\":1180,\
         \"drop_detected\":{\"classes\":692,\"faults\":994},\
         \"podem_detected\":{\"classes\":140,\"faults\":178},\
         \"salvaged\":{\"classes\":0,\"faults\":0},\
         \"aborted\":{\"classes\":0,\"faults\":0},\
         \"untestable\":{\"classes\":8,\"faults\":8},\
         \"never_targeted\":{\"classes\":0,\"faults\":0}}" ) ]

(* With every PODEM call failing, each targeted class goes through the
   salvage pass: it ends Salvaged, or Aborted with the failure as its
   reason; the only other outcome is a Drop_detected swept by a
   salvaged test.  Same campaign at -j1 and -j4 (abort reasons name a
   chaos check number, which speculation shifts, so rows compare by
   outcome, and the stats without them). *)
let test_full_scan_podem_chaos () =
  let nl = fig1_netlist Hft_core.Fig1_exp.B in
  let faults = Fault.collapsed nl in
  let run jobs =
    Hft_robust.Chaos.with_config
      { Hft_robust.Chaos.seed = 7; prob = 1.0;
        sites = [ Hft_robust.Chaos.Podem ]; arm_after = 0 }
    @@ fun () ->
    with_obs @@ fun () ->
    let r = Full_scan.atpg ~backtrack_limit:200 ~jobs nl ~faults in
    let rows = r.Full_scan.stats.Seq_atpg.rows in
    let salvaged_tests =
      List.filter_map
        (fun row ->
          match row.Hft_obs.Ledger.lr_resolution with
          | Hft_obs.Ledger.Salvaged { test; _ } -> Some test
          | _ -> None)
        rows
    in
    check "some class salvaged" true (salvaged_tests <> []);
    List.iter
      (fun row ->
        check
          ("salvaged or aborted with a reason: " ^ row.Hft_obs.Ledger.lr_rep)
          true
          (match row.Hft_obs.Ledger.lr_resolution with
           | Hft_obs.Ledger.Salvaged _ -> true
           | Hft_obs.Ledger.Aborted { reason = Some _; _ } -> true
           | Hft_obs.Ledger.Drop_detected { test } ->
             List.mem test salvaged_tests
           | _ -> false))
      rows;
    let waterfall = Hft_obs.Ledger.waterfall rows in
    let rows_sum =
      List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 waterfall
    in
    check_int "waterfall sums to the class count" (List.length rows) rows_sum;
    ( { r.Full_scan.stats with rows = [] },
      r.Full_scan.tests,
      Hft_util.Json.to_string (Hft_obs.Ledger.waterfall_json waterfall),
      List.map
        (fun row ->
          Hft_obs.Ledger.resolution_key row.Hft_obs.Ledger.lr_resolution)
        rows )
  in
  let s1, t1, w1, r1 = run 1 in
  let s4, t4, w4, r4 = run 4 in
  check "-j4 stats" true (s1 = s4);
  check "-j4 tests" true (t1 = t4);
  Alcotest.(check string) "-j4 waterfall" w1 w4;
  Alcotest.(check (list string)) "-j4 resolutions" r1 r4

(* ATPG reads the scan view; only {!Full_scan.insert} edits the
   netlist.  A circuit without flip-flops is a plain combinational
   campaign. *)
let test_full_scan_leaves_netlist () =
  let nl = fig1_netlist Hft_core.Fig1_exp.C in
  let n = Netlist.n_nodes nl and v = Netlist.version nl in
  let faults = Fault.collapsed nl in
  let first = Full_scan.atpg ~backtrack_limit:200 nl ~faults in
  check_int "node count unchanged" n (Netlist.n_nodes nl);
  check_int "version unchanged" v (Netlist.version nl);
  let second = Full_scan.atpg ~backtrack_limit:200 nl ~faults in
  check "second run identical" true
    (first.Full_scan.stats = second.Full_scan.stats
     && first.Full_scan.tests = second.Full_scan.tests);
  let blk = Expand.comb_block ~width:3 [ Op.Add ] in
  let comb = blk.Expand.b_netlist in
  check_int "no flip-flops" 0 (List.length (Netlist.dffs comb));
  let faults = Fault.collapsed comb in
  let r = Full_scan.atpg comb ~faults in
  check_int "combinational block: every fault resolved"
    (List.length faults)
    (r.Full_scan.stats.Seq_atpg.detected + r.Full_scan.stats.Seq_atpg.untestable
     + r.Full_scan.stats.Seq_atpg.aborted)

let test_full_scan_functionality_preserved () =
  (* After chain insertion with scan_en = 0, functional behaviour is
     untouched: compare against a pre-insertion copy via run_iteration
     semantics on a tiny circuit. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let f = Netlist.add nl Netlist.Dff [| a |] in
  let _y = Netlist.add nl ~name:"y" Netlist.Po [| f |] in
  let before =
    Sim.run_cycles nl ~stimuli:[| [| true |]; [| false |]; [| true |] |]
  in
  let chain = Full_scan.insert nl in
  (* Same stimulus with scan controls low. *)
  let pis = Netlist.pis nl in
  let stim =
    Array.map
      (fun row ->
        Array.of_list
          (List.map
             (fun p ->
               if p = chain.Chain.scan_en || p = chain.Chain.scan_in then false
               else row.(0))
             pis))
      [| [| true |]; [| false |]; [| true |] |]
  in
  let after = Sim.run_cycles nl ~stimuli:stim in
  (* PO streams agree on the functional output (scan_out may differ). *)
  Array.iteri
    (fun c row -> check "functional value" true (row.(0) = before.(c).(0)))
    after

(* ------------------------------------------------------------------ *)
(* Apply                                                              *)
(* ------------------------------------------------------------------ *)

let test_apply_end_to_end () =
  let d = small_datapath () in
  let ex = Expand.of_datapath d in
  let nl = ex.Expand.netlist in
  let rng = Hft_util.Rng.create 9 in
  let faults =
    Fault.collapsed nl
    |> List.filter (fun _ -> Hft_util.Rng.int rng 40 = 0)
  in
  (* Generate scan-view tests first, then insert the chain and apply
     each test for real. *)
  let dffs = Netlist.dffs nl in
  let assignable = Netlist.pis nl @ dffs in
  let observe =
    Netlist.pos nl @ List.map (fun dd -> (Netlist.fanin nl dd).(0)) dffs
  in
  let pairs =
    List.filter_map
      (fun f ->
        match
          Podem.generate ~backtrack_limit:300 nl ~faults:[ f ] ~assignable
            ~observe
        with
        | Podem.Test assignment, _ -> Some (f, assignment)
        | Podem.Untestable, _ | Podem.Aborted, _ -> None)
      faults
  in
  check "have scan tests" true (List.length pairs >= 3);
  let chain = Full_scan.insert nl in
  let applied = List.length pairs in
  let caught =
    List.length
      (List.filter
         (fun (f, assignment) ->
           Apply.apply_and_check chain ~assignment ~fault:f)
         pairs)
  in
  (* Scan application must catch the overwhelming majority; a test can
     occasionally rely on a second capture (our application does one),
     so allow a small slack. *)
  check "almost all tests apply" true
    (float_of_int caught /. float_of_int applied > 0.9)

(* ------------------------------------------------------------------ *)
(* Partial scan                                                       *)
(* ------------------------------------------------------------------ *)

let test_partial_scan_breaks_loops () =
  let d = small_datapath () in
  let ex = Expand.of_datapath d in
  let nl = ex.Expand.netlist in
  let scanned = Partial_scan.select_gate_level nl in
  check "selects something" true (List.length scanned > 0);
  (* After removing scanned FFs the S-graph is loop-free modulo
     self-loops. *)
  let s = Gsgraph.of_netlist nl in
  let idx_of = Hashtbl.create 16 in
  List.iteri (fun i dd -> Hashtbl.replace idx_of dd i)
    (Array.to_list s.Gsgraph.dff_ids);
  let vertices = List.map (Hashtbl.find idx_of) scanned in
  check "loop-free after cut" true
    (Hft_util.Mfvs.is_feedback_set ~ignore_self_loops:true s.Gsgraph.graph
       vertices)

let test_rtl_selection_fewer_ffs () =
  let d = small_datapath () in
  let ex = Expand.of_datapath d in
  let nl = ex.Expand.netlist in
  let gate_sel = Partial_scan.select_gate_level nl in
  let rtl_sel = Partial_scan.select_rtl_level d ex in
  (* RTL selection picks whole registers: multiples of the width; and
     the per-bit count should not exceed the gate-level count by much
     (typically it is equal or smaller per broken loop). *)
  check "rtl selection non-empty" true (List.length rtl_sel > 0);
  check_int "whole registers" 0 (List.length rtl_sel mod d.Hft_rtl.Datapath.width);
  (* Both selections break all loops. *)
  let s = Gsgraph.of_netlist nl in
  let idx_of = Hashtbl.create 16 in
  List.iteri (fun i dd -> Hashtbl.replace idx_of dd i)
    (Array.to_list s.Gsgraph.dff_ids);
  List.iter
    (fun sel ->
      check "breaks loops" true
        (Hft_util.Mfvs.is_feedback_set ~ignore_self_loops:true s.Gsgraph.graph
           (List.map (Hashtbl.find idx_of) sel)))
    [ gate_sel; rtl_sel ]

let test_partial_scan_atpg_beats_noscan () =
  let d = small_datapath () in
  let ex = Expand.of_datapath d in
  let nl = ex.Expand.netlist in
  let rng = Hft_util.Rng.create 21 in
  let faults =
    Fault.collapsed nl
    |> List.filter (fun _ -> Hft_util.Rng.int rng 60 = 0)
  in
  let scanned = Partial_scan.select_rtl_level d ex in
  let no_scan =
    Partial_scan.atpg ~backtrack_limit:60 ~max_frames:3 nl ~faults ~scanned:[]
  in
  let with_scan =
    Partial_scan.atpg ~backtrack_limit:60 ~max_frames:3 nl ~faults ~scanned
  in
  check "partial scan coverage >= no scan" true
    (Seq_atpg.fault_coverage with_scan >= Seq_atpg.fault_coverage no_scan)

(* ------------------------------------------------------------------ *)
(* Boundary scan                                                      *)
(* ------------------------------------------------------------------ *)

(* Core under wrap: y0 = a & b, y1 = a ^ b. *)
let bs_core () =
  let nl = Netlist.create ~name:"bs_core" () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.And [| a; b |] in
  let g2 = Netlist.add nl Netlist.Xor [| a; b |] in
  let _ = Netlist.add nl ~name:"y0" Netlist.Po [| g1 |] in
  let _ = Netlist.add nl ~name:"y1" Netlist.Po [| g2 |] in
  nl

let test_boundary_shift () =
  let t = Boundary.insert (bs_core ()) in
  check "chain shifts" true (Boundary.verify_shift t)

let test_boundary_extest () =
  let t = Boundary.insert (bs_core ()) in
  (* EXTEST with a=1,b=1 driven from the cells (pins forced to 0 by the
     harness): expect y0 = 1, y1 = 0. *)
  (match Boundary.extest_roundtrip t ~inputs:[ true; true ] with
   | [ y0; y1 ] ->
     check "y0 = and = 1" true y0;
     check "y1 = xor = 0" false y1
   | _ -> Alcotest.fail "two output cells expected");
  (match Boundary.extest_roundtrip t ~inputs:[ true; false ] with
   | [ y0; y1 ] ->
     check "y0 = 0" false y0;
     check "y1 = 1" true y1
   | _ -> Alcotest.fail "two output cells expected")

let test_boundary_functional_transparency () =
  (* With bs_shift = extest = 0 the wrapped core behaves like the bare
     one. *)
  let bare = bs_core () in
  let bare_out =
    Sim.run_cycles bare ~stimuli:[| [| true; false |]; [| true; true |] |]
  in
  let t = Boundary.insert (bs_core ()) in
  let nl = t.Boundary.netlist in
  let pis = Netlist.pis nl in
  let stim =
    Array.map
      (fun row ->
        Array.of_list
          (List.map
             (fun p ->
               if p = t.Boundary.bs_shift || p = t.Boundary.extest
                  || p = t.Boundary.bs_in
               then false
               else if Netlist.node_name nl p = "a" then row.(0)
               else row.(1))
             pis))
      [| [| true; false |]; [| true; true |] |]
  in
  let wrapped_out = Sim.run_cycles nl ~stimuli:stim in
  (* Compare the functional POs (y0, y1) — positions 0 and 1. *)
  Array.iteri
    (fun c row ->
      check "y0 transparent" true (row.(0) = bare_out.(c).(0));
      check "y1 transparent" true (row.(1) = bare_out.(c).(1)))
    wrapped_out

let test_boundary_on_datapath () =
  let g = Hft_cdfg.Bench_suite.tseng () in
  let r =
    Hft_hls.Datapath_gen.conventional ~width:3
      ~resources:
        [ (Op.Multiplier, 1); (Op.Alu, 1); (Op.Comparator, 1);
          (Op.Logic_unit, 1) ]
      g
  in
  let ex = Expand.of_datapath r in
  let t = Boundary.insert ex.Expand.netlist in
  check "datapath boundary chain shifts" true (Boundary.verify_shift t)

let () =
  Alcotest.run "hft_scan"
    [
      ( "chain",
        [
          Alcotest.test_case "shift integrity" `Quick test_chain_shift_integrity;
          Alcotest.test_case "test cycles" `Quick test_chain_test_cycles;
          Alcotest.test_case "non-dff rejected" `Quick test_chain_rejects_non_dff;
        ] );
      ( "comb_scan",
        [
          Alcotest.test_case "observes state inputs" `Quick
            test_comb_scan_observes_state_inputs;
        ] );
      ( "full_scan",
        [
          Alcotest.test_case "coverage" `Quick test_full_scan_coverage;
          Alcotest.test_case "drop matches naive" `Quick
            test_full_scan_drop_matches_naive;
          Alcotest.test_case "drop sound with aborts" `Quick
            test_full_scan_drop_sound_with_aborts;
          Alcotest.test_case "functionality preserved" `Quick
            test_full_scan_functionality_preserved;
          Alcotest.test_case "golden campaigns" `Quick test_full_scan_golden;
          Alcotest.test_case "podem chaos salvages" `Quick
            test_full_scan_podem_chaos;
          Alcotest.test_case "leaves the netlist alone" `Quick
            test_full_scan_leaves_netlist;
        ] );
      ("apply", [ Alcotest.test_case "end to end" `Quick test_apply_end_to_end ]);
      ( "partial_scan",
        [
          Alcotest.test_case "breaks loops" `Quick test_partial_scan_breaks_loops;
          Alcotest.test_case "rtl selection" `Quick test_rtl_selection_fewer_ffs;
          Alcotest.test_case "atpg vs noscan" `Quick
            test_partial_scan_atpg_beats_noscan;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "shift" `Quick test_boundary_shift;
          Alcotest.test_case "extest" `Quick test_boundary_extest;
          Alcotest.test_case "transparency" `Quick
            test_boundary_functional_transparency;
          Alcotest.test_case "on a datapath" `Quick test_boundary_on_datapath;
        ] );
    ]
