(* Experiment harness: one function per reproduced table/figure.  Every
   function prints rows in the style of the surveyed papers' tables; the
   expected shapes are recorded in EXPERIMENTS.md. *)

open Hft_cdfg
open Hft_core
module Pretty = Hft_util.Pretty

let resources =
  [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1); (Op.Logic_unit, 1) ]

let benches () = Bench_suite.all ()
let sched_of g = Hft_hls.List_sched.schedule g ~resources

(* All numeric output flows through [table] so the same rows serve the
   pretty text mode and the JSONL mode ([--json] in main.ml) without
   per-experiment formatting code.  [banner] remembers the experiment
   id so JSONL rows are tagged with the table they came from. *)
let current = ref ""

let banner id title =
  current := id;
  if !Hft_obs.Table.mode = Hft_obs.Table.Jsonl then
    Printf.eprintf "== %s — %s ==\n%!" id title
  else Printf.printf "\n================ %s — %s ================\n" id title

let table ?title ~header rows =
  match !Hft_obs.Table.mode with
  | Hft_obs.Table.Text -> Hft_obs.Table.emit ?title ~header rows
  | Hft_obs.Table.Jsonl ->
    let title =
      match title with
      | Some t -> Printf.sprintf "%s: %s" !current t
      | None -> !current
    in
    Hft_obs.Table.emit ~title ~header rows

(* Pre-rendered text blocks (paper tables) go to stderr in JSONL mode
   so stdout stays machine-parseable. *)
let text_block s =
  if !Hft_obs.Table.mode = Hft_obs.Table.Jsonl then prerr_string s
  else print_string s

(* ------------------------------------------------------------------ *)

let table1 () =
  banner "T1" "paper Table 1 (verbatim)";
  text_block (Tool_survey.render ())

let fig1 () =
  banner "F1" "paper Figure 1, executed";
  text_block (Fig1_exp.render ())

(* E1: scan registers to break all CDFG loops, three selectors. *)
let e1_scanregs () =
  banner "E1" "scan registers to break all loops ([33]/[24] vs MFVS baseline)";
  let rows =
    List.filter_map
      (fun (name, g) ->
        let sched = sched_of g in
        let m = Scan_vars.select_mfvs g sched in
        let e = Scan_vars.select_effective g sched in
        let b = Scan_vars.select_boundary g sched in
        if m.Scan_vars.scan_vars = [] then None
        else
          Some
            [ name;
              string_of_int (List.length m.Scan_vars.scan_vars);
              string_of_int m.Scan_vars.n_scan_registers;
              string_of_int (List.length e.Scan_vars.scan_vars);
              string_of_int e.Scan_vars.n_scan_registers;
              string_of_int (List.length b.Scan_vars.scan_vars);
              string_of_int b.Scan_vars.n_scan_registers ])
      (benches ())
  in
  table
    ~header:
      [ "bench"; "mfvs vars"; "mfvs regs"; "eff vars"; "eff regs";
        "bnd vars"; "bnd regs" ]
    rows

(* E2: I/O register maximisation + mobility-path scheduling. *)
let e2_ioregs () =
  banner "E2" "I/O-register assignment ([25]) and mobility-path scheduling ([26])";
  let rows =
    List.map
      (fun (name, g) ->
        let sched = sched_of g in
        let conv = Io_reg_assign.assign_conventional g sched in
        let io = Io_reg_assign.assign g sched in
        let mp = Hft_hls.Mobility_path.schedule g ~resources in
        let io_mp = Io_reg_assign.assign g mp in
        [ name;
          Printf.sprintf "%d/%d" conv.Io_reg_assign.n_io_registers
            conv.Io_reg_assign.n_registers;
          Printf.sprintf "%d/%d" io.Io_reg_assign.n_io_registers
            io.Io_reg_assign.n_registers;
          Printf.sprintf "%d/%d" io_mp.Io_reg_assign.n_io_registers
            io_mp.Io_reg_assign.n_registers;
          string_of_int (Hft_hls.Mobility_path.io_sharable_count g sched);
          string_of_int (Hft_hls.Mobility_path.io_sharable_count g mp) ])
      (benches ())
  in
  table
    ~header:
      [ "bench"; "conv io/total"; "[25] io/total"; "[25]+[26] io/total";
        "sharable (list)"; "sharable (mob-path)" ]
    rows

(* E3: assignment loops, conventional binding vs loop-aware. *)
let e3_assignloops () =
  banner "E3" "assignment loops: conventional vs simultaneous sched+assign ([33])";
  let rows =
    List.map
      (fun (name, g) ->
        let conv = Sim_sched_assign.conventional ~resources g in
        let aware = Sim_sched_assign.run ~resources g None in
        let scan_regs r =
          let info = Lifetime.compute g r.Sim_sched_assign.sched in
          let alloc = Hft_hls.Reg_alloc.left_edge g info in
          let d =
            Hft_hls.Datapath_gen.generate ~width:8 g r.Sim_sched_assign.sched
              r.Sim_sched_assign.binding alloc
          in
          List.length (Hft_rtl.Sgraph.scan_selection (Hft_rtl.Sgraph.of_datapath d))
        in
        [ name;
          string_of_int conv.Sim_sched_assign.est_assignment_loops;
          string_of_int (scan_regs conv);
          string_of_int aware.Sim_sched_assign.est_assignment_loops;
          string_of_int (scan_regs aware) ])
      (benches ())
  in
  table
    ~header:[ "bench"; "conv loops"; "conv scan regs"; "[33] loops"; "[33] scan regs" ]
    rows

(* E4: sequential ATPG effort vs scan methodology. *)
let e4_seqatpg () =
  banner "E4" "sequential ATPG effort: no DFT vs partial scan vs full scan ([10,22])";
  let rng = Hft_util.Rng.create 2024 in
  let rows =
    List.map
      (fun name ->
        let g = Bench_suite.by_name name in
        let r = Flow.synthesize_conventional ~width:4 g in
        let ex = Hft_gate.Expand.of_datapath r.Flow.datapath in
        let nl = ex.Hft_gate.Expand.netlist in
        let faults =
          Hft_gate.Fault.collapsed nl
          |> List.filter (fun _ -> Hft_util.Rng.int rng 25 = 0)
        in
        let no_dft =
          Hft_scan.Partial_scan.atpg ~backtrack_limit:50 ~max_frames:3 nl
            ~faults ~scanned:[]
        in
        let scanned = Hft_scan.Partial_scan.select_rtl_level r.Flow.datapath ex in
        let partial =
          Hft_scan.Partial_scan.atpg ~backtrack_limit:50 ~max_frames:3 nl
            ~faults ~scanned
        in
        let full = Hft_scan.Full_scan.atpg ~backtrack_limit:200 nl ~faults in
        let seq_cov (s : Hft_gate.Seq_atpg.stats) =
          Pretty.pct (Hft_gate.Seq_atpg.fault_coverage s)
        in
        [ name;
          string_of_int (List.length faults);
          seq_cov no_dft;
          string_of_int no_dft.Hft_gate.Seq_atpg.backtracks;
          seq_cov partial;
          string_of_int partial.Hft_gate.Seq_atpg.backtracks;
          Printf.sprintf "%d ffs" (List.length scanned);
          seq_cov full.Hft_scan.Full_scan.stats;
          string_of_int full.Hft_scan.Full_scan.stats.Hft_gate.Seq_atpg.backtracks ])
      [ "tseng"; "diffeq" ]
  in
  table
    ~header:
      [ "bench"; "faults"; "noDFT cov"; "noDFT btk"; "pscan cov"; "pscan btk";
        "pscan cells"; "fscan cov"; "fscan btk" ]
    rows

(* E5: self-adjacent registers, conventional vs BIST-aware assignment. *)
let e5_selfadj () =
  banner "E5" "self-adjacent registers ([3]): conventional vs BIST-aware assignment";
  let rows =
    List.map
      (fun (name, g) ->
        let sched = sched_of g in
        let binding = Hft_hls.Fu_bind.left_edge ~resources g sched in
        let info = Lifetime.compute g sched in
        let conv = Hft_hls.Reg_alloc.left_edge g info in
        let aware = Hft_bist.Reg_assign.bist_aware g sched binding info in
        [ name;
          string_of_int conv.Hft_hls.Reg_alloc.n_regs;
          string_of_int (Hft_bist.Reg_assign.self_adjacent_count g binding conv);
          string_of_int aware.Hft_hls.Reg_alloc.n_regs;
          string_of_int (Hft_bist.Reg_assign.self_adjacent_count g binding aware) ])
      (benches ())
  in
  table
    ~header:[ "bench"; "conv regs"; "conv self-adj"; "[3] regs"; "[3] self-adj" ]
    rows

(* E6: TFB vs XTFB vs register-level BIST. *)
let e6_tfb () =
  banner "E6" "self-testable data paths: [3]-style vs TFB [31] vs XTFB [19]";
  let width = 8 in
  let rows =
    List.map
      (fun (name, g) ->
        let sched = sched_of g in
        let t = Hft_bist.Tfb.map g sched in
        let x = Hft_bist.Xtfb.map g sched in
        let bist = Flow.synthesize_for_bist ~width g in
        [ name;
          string_of_int bist.Flow.report.Flow.n_test_registers;
          string_of_int bist.Flow.report.Flow.n_cbilbo;
          string_of_int t.Hft_bist.Tfb.n_tfbs;
          Pretty.ff ~dp:0 (Hft_bist.Tfb.area ~width t);
          string_of_int x.Hft_bist.Xtfb.n_xtfbs;
          string_of_int x.Hft_bist.Xtfb.n_tpgr_only;
          Pretty.ff ~dp:0 (Hft_bist.Xtfb.area ~width x) ])
      (benches ())
  in
  table
    ~header:
      [ "bench"; "[3] test regs"; "[3] cbilbo"; "TFBs"; "TFB area";
        "XTFBs"; "XTFB tpgr-only"; "XTFB area" ]
    rows

(* E7: TPGR/SR sharing. *)
let e7_share () =
  banner "E7" "test-register sharing ([32]): conventional vs sharing-aware assignment";
  let rows =
    List.map
      (fun (name, g) ->
        let sched = sched_of g in
        let binding = Hft_hls.Fu_bind.left_edge ~resources g sched in
        let info = Lifetime.compute g sched in
        let conv = Hft_hls.Reg_alloc.left_edge g info in
        let shared = Hft_bist.Share.sharing_aware g sched binding info in
        let measure alloc =
          let d = Hft_hls.Datapath_gen.generate ~width:8 g sched binding alloc in
          let p = Hft_bist.Bilbo.plan d in
          (Hft_bist.Share.test_register_count d, p.Hft_bist.Bilbo.n_cbilbo)
        in
        let tc, cc = measure conv in
        let ts, cs = measure shared in
        [ name; string_of_int tc; string_of_int cc; string_of_int ts;
          string_of_int cs ])
      (benches ())
  in
  table
    ~header:[ "bench"; "conv test regs"; "conv cbilbo"; "[32] test regs"; "[32] cbilbo" ]
    rows

(* E8: test sessions, naive vs conflict-aware SR selection. *)
let e8_sessions () =
  banner "E8" "BIST test sessions ([20]): naive vs conflict-aware SR selection";
  let rows =
    List.map
      (fun (name, g) ->
        let conv = Flow.synthesize_conventional ~width:8 g in
        let plan = Hft_bist.Bilbo.plan conv.Flow.datapath in
        let n_paths =
          List.length (Hft_bist.Session.paths conv.Flow.datapath plan)
        in
        let naive = Hft_bist.Session.count conv.Flow.datapath plan in
        let opt =
          Hft_bist.Session.count conv.Flow.datapath
            (Hft_bist.Session.optimize conv.Flow.datapath plan)
        in
        (* Concurrency-aware register assignment: disjoint test paths. *)
        let sched = conv.Flow.sched and binding = conv.Flow.binding in
        let info = Lifetime.compute g sched in
        let alloc = Hft_bist.Session.concurrency_aware_alloc g binding info in
        let d' = Hft_hls.Datapath_gen.generate ~width:8 g sched binding alloc in
        let plan' = Hft_bist.Bilbo.plan d' in
        let conc = Hft_bist.Session.count d' plan' in
        [ name; string_of_int n_paths; string_of_int naive;
          string_of_int opt;
          Printf.sprintf "%d (%d regs)" conc (Hft_rtl.Datapath.n_regs d') ])
      (benches ())
  in
  table
    ~header:
      [ "bench"; "blocks"; "sessions (naive SR)"; "sessions (SR opt)";
        "sessions ([20] assign)" ]
    rows

(* E9: LFSR vs arithmetic generators. *)
let e9_arith () =
  banner "E9" "arithmetic BIST ([28]): coverage vs patterns, LFSR vs accumulator";
  let width = 4 in
  let checkpoints = [ 16; 64; 256; 1024 ] in
  let rows =
    List.concat_map
      (fun kinds ->
        let tag =
          String.concat "+" (List.map Op.to_string kinds)
        in
        List.map
          (fun (src, srctag) ->
            let r =
              Hft_bist.Run.run_block ~checkpoints ~source:src ~seed:11 ~width
                kinds
            in
            tag :: srctag
            :: List.map (fun (_, c) -> Pretty.pct c) r.Hft_bist.Run.coverage)
          [ (Hft_bist.Run.Lfsr_source, "lfsr");
            (Hft_bist.Run.Arith_source, "accumulator") ])
      [ [ Op.Add ]; [ Op.Mul ]; [ Op.Add; Op.Sub ] ]
  in
  table
    ~header:
      ([ "block"; "generator" ]
       @ List.map (fun c -> Printf.sprintf "@%d" c) checkpoints)
    rows;
  (* Subspace state coverage of the two binding policies. *)
  let g = Bench_suite.ewf () in
  let sched = sched_of g in
  let conv = Hft_hls.Fu_bind.left_edge ~resources g sched in
  let cov = Hft_bist.Arith.coverage_bind ~resources ~width:8 ~samples:64 ~seed:5 g sched in
  let streams = Hft_bist.Arith.op_streams ~width:8 ~samples:64 ~seed:5 g in
  let fu_cov (b : Hft_hls.Fu_bind.t) =
    let per_inst =
      Array.to_list b.Hft_hls.Fu_bind.instances
      |> List.map (fun (_, ops) ->
             Hft_bist.Arith.subspace_coverage ~k:3
               (List.concat_map (fun o -> List.assoc o streams) ops))
    in
    List.fold_left ( +. ) 0.0 per_inst /. float_of_int (List.length per_inst)
  in
  table
    ~title:"mean subspace state coverage at unit inputs (k = 3), ewf"
    ~header:[ "binding"; "coverage" ]
    [ [ "conventional"; Pretty.pct (fu_cov conv) ];
      [ "coverage-guided [28]"; Pretty.pct (fu_cov cov) ] ]

(* E10: k-level test points vs scan. *)
let e10_klevel () =
  banner "E10" "non-scan k-level test points ([15]) vs scan registers";
  let rows =
    List.filter_map
      (fun (name, g) ->
        let r = Flow.synthesize_conventional ~width:8 g in
        let s = Hft_rtl.Sgraph.of_datapath r.Flow.datapath in
        let scan = List.length (Hft_rtl.Sgraph.scan_selection s) in
        if scan = 0 then None
        else
          let sweep = Hft_rtl.Klevel.sweep s ~max_k:3 in
          Some
            (name :: string_of_int scan
             :: List.map
                  (fun k -> string_of_int (List.length k.Hft_rtl.Klevel.test_points))
                  sweep))
      (benches ())
  in
  table
    ~header:[ "bench"; "scan regs (k=0 cut)"; "tp k=0"; "tp k=1"; "tp k=2"; "tp k=3" ]
    rows

(* E11: controller DFT — implications, then real composite ATPG. *)
let e11_ctrl () =
  banner "E11" "controller-based DFT ([14]): control-vector implications";
  let rows =
    List.map
      (fun (name, g) ->
        let r = Flow.synthesize_conventional ~width:8 g in
        let rep = Controller_dft.harden r.Flow.datapath in
        [ name;
          string_of_int rep.Controller_dft.implications_before;
          string_of_int rep.Controller_dft.implications_after;
          string_of_int rep.Controller_dft.extra_vectors ])
      (benches ())
  in
  table
    ~header:[ "bench"; "implications"; "after DFT"; "extra vectors" ]
    rows;
  (* Composite (FSM-driven) sequential ATPG, with and without the test
     vectors: the controller's functional vocabulary really limits
     coverage, and the DFT vectors recover part of it. *)
  let rows2 =
    List.map
      (fun name ->
        let g = Bench_suite.by_name name in
        let r = Flow.synthesize_conventional ~width:3 g in
        let atpg_with controller tag =
          let t = Hft_gate.Ctrl_expand.compose r.Flow.datapath controller in
          let rng = Hft_util.Rng.create 77 in
          (* Same fault universe for both controllers: the data-path
             prefix is identical across compositions. *)
          let faults =
            Hft_gate.Fault.collapsed t.Hft_gate.Ctrl_expand.netlist
            |> List.filter (fun f ->
                   f.Hft_gate.Fault.node
                   < t.Hft_gate.Ctrl_expand.n_datapath_nodes)
            |> List.filter (fun _ -> Hft_util.Rng.int rng 10 = 0)
          in
          (* Frames must cover reset + the full FSM walk. *)
          let frames = r.Flow.datapath.Hft_rtl.Datapath.n_steps + 3 in
          let s =
            Hft_gate.Ctrl_expand.atpg ~backtrack_limit:200 ~max_frames:frames t
              ~faults
          in
          (tag, List.length faults, Hft_gate.Seq_atpg.fault_coverage s)
        in
        let c0 = Hft_rtl.Controller.of_datapath r.Flow.datapath in
        let hardened =
          (Controller_dft.harden r.Flow.datapath).Controller_dft.controller
        in
        let _, nf0, cov0 = atpg_with c0 "plain" in
        let _, nf1, cov1 = atpg_with hardened "dft" in
        [ name; string_of_int nf0; Pretty.pct cov0; string_of_int nf1;
          Pretty.pct cov1 ])
      [ "tseng"; "diffeq" ]
  in
  table
    ~title:"composite controller+datapath sequential ATPG (sampled faults)"
    ~header:
      [ "bench"; "faults (plain)"; "coverage (plain)"; "faults (dft)";
        "coverage (dft)" ]
    rows2

(* E12: behaviour modification. *)
let e12_behmod () =
  banner "E12" "behaviour modification ([9]/[16]): test statements and deflections";
  let rows =
    List.map
      (fun (name, g) ->
        let ts = Behav_mod.add_test_statements g in
        let defl =
          Behav_mod.deflect_for_scan_sharing ~max_tries:4
            ~resources g
        in
        [ name;
          string_of_int ts.Behav_mod.hard_before;
          string_of_int ts.Behav_mod.hard_after;
          string_of_int (ts.Behav_mod.test_controls + ts.Behav_mod.test_observes);
          string_of_int defl.Behav_mod.scan_regs_before;
          string_of_int defl.Behav_mod.scan_regs_after;
          string_of_int defl.Behav_mod.deflections ])
      (benches ())
  in
  table
    ~header:
      [ "bench"; "hard vars"; "after [9]"; "test points"; "scan regs";
        "after [16]"; "deflections" ]
    rows

(* E13: hierarchical testability. *)
let e13_hier () =
  banner "E13" "hierarchical test environments ([7]/[38])";
  let rows =
    List.map
      (fun (name, g) ->
        let sched = sched_of g in
        let binding = Hft_hls.Fu_bind.left_edge ~resources g sched in
        let covered, uncovered = Hier_test.covered_instances ~width:8 g binding in
        let g', points = Hier_test.ensure_coverage ~width:8 g binding in
        let covered', _ = Hier_test.covered_instances ~width:8 g' binding in
        [ name;
          Printf.sprintf "%d/%d" (List.length covered)
            (List.length covered + List.length uncovered);
          string_of_int points;
          Printf.sprintf "%d/%d" (List.length covered')
            (List.length covered + List.length uncovered) ])
      (benches ())
  in
  table
    ~header:[ "bench"; "instances w/ env"; "test points added"; "after repair" ]
    rows;
  (* Composition demo: translate module vectors for diffeq's m6, and
     contrast the effort with flat sequential ATPG over the same number
     of faults. *)
  let g = Bench_suite.diffeq () in
  (match Graph.producer g (Graph.var_by_name g "m6") with
   | Some o ->
     (match Hier_test.environment ~width:8 g o.Graph.o_id with
      | Some env ->
        let pairs = List.init 16 (fun i -> (i * 3 mod 17, i * 7 mod 13)) in
        let c = Hier_test.compose ~width:8 g env pairs in
        table ~title:"compose (diffeq multiplier m6)"
          ~header:[ "vectors translated"; "confirmed end-to-end" ]
          [ [ string_of_int c.Hier_test.vectors_translated;
              string_of_int c.Hier_test.vectors_confirmed ] ];
        (* Hierarchical effort: PODEM on the 4-bit multiplier block. *)
        let blk = Hft_gate.Expand.comb_block ~width:4 [ Op.Mul ] in
        let bnl = blk.Hft_gate.Expand.b_netlist in
        let mod_faults = Hft_gate.Fault.collapsed bnl in
        let mod_impl = ref 0 and mod_det = ref 0 in
        List.iter
          (fun f ->
            match Hft_gate.Podem.generate_comb bnl ~fault:f with
            | Hft_gate.Podem.Test _, e ->
              incr mod_det;
              mod_impl := !mod_impl + e.Hft_gate.Podem.implications
            | _, e -> mod_impl := !mod_impl + e.Hft_gate.Podem.implications)
          mod_faults;
        (* Flat effort: sequential ATPG over the same number of sampled
           faults on the whole expansion. *)
        let r = Flow.synthesize_conventional ~width:4 g in
        let ex = Hft_gate.Expand.of_datapath r.Flow.datapath in
        let nl = ex.Hft_gate.Expand.netlist in
        let rng = Hft_util.Rng.create 3 in
        let all = Hft_gate.Fault.collapsed nl in
        let keep = float_of_int (List.length mod_faults) /. float_of_int (List.length all) in
        let flat_faults =
          List.filter (fun _ -> Hft_util.Rng.float rng < keep) all
        in
        let flat =
          Hft_gate.Seq_atpg.run ~backtrack_limit:40 ~max_frames:3 nl
            ~faults:flat_faults ~scanned:[]
        in
        let per_fault impl total =
          float_of_int impl /. float_of_int (max 1 total)
        in
        let ratio =
          per_fault flat.Hft_gate.Seq_atpg.implications
            flat.Hft_gate.Seq_atpg.total
          /. per_fault !mod_impl (List.length mod_faults)
        in
        table ~title:"hierarchical vs flat ATPG effort"
          ~header:
            [ "approach"; "faults"; "detected"; "implications"; "impl ratio" ]
          [ [ "hierarchical (module)";
              string_of_int (List.length mod_faults);
              string_of_int !mod_det;
              string_of_int !mod_impl; "1.0" ];
            [ "flat sequential";
              string_of_int flat.Hft_gate.Seq_atpg.total;
              string_of_int flat.Hft_gate.Seq_atpg.detected;
              string_of_int flat.Hft_gate.Seq_atpg.implications;
              Printf.sprintf "%.1f" ratio ] ]
      | None -> prerr_endline "compose demo: no environment found")
   | None -> ())

(* E14: transparent scan on non-register nodes. *)
let e14_tscan () =
  banner "E14" "transparent scan cells on non-register nodes ([35]/[37])";
  let rows =
    List.filter_map
      (fun (name, g) ->
        let r = Flow.synthesize_conventional ~width:8 g in
        let s = Hft_rtl.Sgraph.of_datapath r.Flow.datapath in
        let loops = Hft_rtl.Sgraph.n_nontrivial_loops s in
        if loops = 0 then None
        else
          let scan_only = List.length (Hft_rtl.Sgraph.scan_selection s) in
          let sel = Hft_rtl.Tscan.select s in
          Some
            [ name;
              string_of_int loops;
              string_of_int scan_only;
              string_of_int (List.length sel.Hft_rtl.Tscan.scan_regs);
              string_of_int (List.length sel.Hft_rtl.Tscan.tscan_fus);
              string_of_int (Hft_rtl.Tscan.n_cells sel) ])
      (benches ())
  in
  table
    ~header:
      [ "bench"; "loops"; "scan-only regs"; "mixed: scan regs";
        "mixed: tscan cells"; "mixed total" ]
    rows

(* E15: test application time accounting: scan shifting vs BIST. *)
let e15_testtime () =
  banner "E15" "test application cycles: full scan shifting vs in-situ BIST";
  let rows =
    List.map
      (fun name ->
        let g = Bench_suite.by_name name in
        let r = Flow.synthesize_conventional ~width:4 g in
        let ex = Hft_gate.Expand.of_datapath r.Flow.datapath in
        let nl = ex.Hft_gate.Expand.netlist in
        let rng = Hft_util.Rng.create 5 in
        let faults =
          Hft_gate.Fault.collapsed nl
          |> List.filter (fun _ -> Hft_util.Rng.int rng 10 = 0)
        in
        let fs = Hft_scan.Full_scan.atpg ~backtrack_limit:200 nl ~faults in
        let chain = Hft_scan.Full_scan.insert nl in
        let n_tests = List.length fs.Hft_scan.Full_scan.tests in
        let cycles = Hft_scan.Chain.test_cycles chain ~n_tests in
        (* BIST: patterns to hit the same coverage as full scan, read off
           the campaign curve, times the session count. *)
        let plan = Hft_bist.Bilbo.plan r.Flow.datapath in
        let sessions = Hft_bist.Session.count r.Flow.datapath plan in
        let report =
          Hft_bist.Run.run ~checkpoints:[ 256; 1024 ]
            ~source:Hft_bist.Run.Lfsr_source ~seed:3 r.Flow.datapath
        in
        let bist_cycles = 1024 * sessions in
        [ name;
          string_of_int n_tests;
          string_of_int (List.length chain.Hft_scan.Chain.cells);
          string_of_int cycles;
          string_of_int sessions;
          string_of_int bist_cycles;
          Pretty.pct (Hft_gate.Seq_atpg.fault_coverage fs.Hft_scan.Full_scan.stats);
          Pretty.pct report.Hft_bist.Run.total_coverage ])
      [ "tseng"; "diffeq" ]
  in
  table
    ~header:
      [ "bench"; "scan tests"; "chain len"; "scan cycles"; "sessions";
        "bist cycles"; "scan cov"; "bist cov" ]
    rows

(* E16: scan selection level — gate vs RTL structure vs RTL ranges. *)
let e16_rtl_scan () =
  banner "E16"
    "partial-scan selection level ([12]): gate-level vs RTL structure vs RTL ranges";
  let rows =
    List.map
      (fun name ->
        let g = Bench_suite.by_name name in
        let r = Flow.synthesize_conventional ~width:4 g in
        let ex = Hft_gate.Expand.of_datapath r.Flow.datapath in
        let nl = ex.Hft_gate.Expand.netlist in
        let s = Hft_rtl.Sgraph.of_datapath r.Flow.datapath in
        let gate_sel = Hft_scan.Partial_scan.select_gate_level nl in
        let rtl_regs = Hft_rtl.Sgraph.scan_selection s in
        let rtl_sel = Hft_gate.Expand.reg_flops ex rtl_regs in
        let range_regs = Hft_rtl.Testability.scan_for_hard_nodes ~threshold:2 s in
        let range_sel = Hft_gate.Expand.reg_flops ex range_regs in
        let rng = Hft_util.Rng.create 33 in
        let faults =
          Hft_gate.Fault.collapsed nl
          |> List.filter (fun _ -> Hft_util.Rng.int rng 30 = 0)
        in
        let cov scanned =
          let st =
            Hft_scan.Partial_scan.atpg ~backtrack_limit:40 ~max_frames:3 nl
              ~faults ~scanned
          in
          Pretty.pct (Hft_gate.Seq_atpg.fault_coverage st)
        in
        [ name;
          Printf.sprintf "%d cells, %s" (List.length gate_sel) (cov gate_sel);
          Printf.sprintf "%d regs = %d cells, %s" (List.length rtl_regs)
            (List.length rtl_sel) (cov rtl_sel);
          Printf.sprintf "%d regs = %d cells, %s" (List.length range_regs)
            (List.length range_sel) (cov range_sel) ])
      [ "tseng"; "diffeq" ]
  in
  table
    ~header:[ "bench"; "gate-level MFVS"; "RTL S-graph"; "RTL ranges [12]" ]
    rows

(* E17: in-situ BIST — registers reconfigured as LFSR/MISR at gate
   level, sessions simulated, faults measured against signatures. *)
let e17_insitu () =
  banner "E17" "in-situ BIST (reconfigured functional registers, section 5)";
  let rows =
    List.map
      (fun name ->
        let g = Bench_suite.by_name name in
        let res =
          [ (Op.Multiplier, 1); (Op.Alu, 1); (Op.Comparator, 1);
            (Op.Logic_unit, 1) ]
        in
        let sched = Hft_hls.List_sched.schedule g ~resources:res in
        let binding = Hft_hls.Fu_bind.left_edge ~resources:res g sched in
        let info = Lifetime.compute g sched in
        let alloc = Hft_hls.Reg_alloc.left_edge g info in
        let d = Hft_hls.Datapath_gen.generate ~width:4 g sched binding alloc in
        let ex = Hft_gate.Expand.of_datapath d in
        let plan = Hft_bist.Bilbo.plan d in
        let t = Hft_bist.Insitu.insert ex d plan in
        let rng = Hft_util.Rng.create 23 in
        let faults =
          Hft_gate.Fault.collapsed t.Hft_bist.Insitu.netlist
          |> List.filter (fun _ -> Hft_util.Rng.int rng 30 = 0)
        in
        let r =
          Hft_bist.Insitu.campaign t d plan ~faults ~cycles:256 ~seed:5
        in
        [ name;
          string_of_int (List.length r.Hft_bist.Insitu.sessions);
          string_of_int r.Hft_bist.Insitu.n_faults;
          string_of_int r.Hft_bist.Insitu.detected;
          Pretty.pct (Hft_bist.Insitu.coverage r) ])
      [ "tseng"; "diffeq" ]
  in
  table
    ~header:[ "bench"; "sessions"; "faults"; "detected"; "in-situ coverage" ]
    rows

(* Flow summary: the headline per-benchmark DFT comparison. *)
let flows () =
  banner "FLOWS" "per-benchmark flow summary (conventional / partial-scan / bist)";
  List.iter
    (fun (name, g) ->
      let rows =
        List.map
          (fun r -> Flow.report_row r.Flow.report)
          [ Flow.synthesize_conventional ~width:8 g;
            Flow.synthesize_for_partial_scan ~width:8 g;
            Flow.synthesize_for_bist ~width:8 g ]
      in
      table ~title:name ~header:Flow.report_header rows)
    (benches ())

let all : (string * (unit -> unit)) list =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("e1_scanregs", e1_scanregs);
    ("e2_ioregs", e2_ioregs);
    ("e3_assignloops", e3_assignloops);
    ("e4_seqatpg", e4_seqatpg);
    ("e5_selfadj", e5_selfadj);
    ("e6_tfb", e6_tfb);
    ("e7_share", e7_share);
    ("e8_sessions", e8_sessions);
    ("e9_arith", e9_arith);
    ("e10_klevel", e10_klevel);
    ("e11_ctrl", e11_ctrl);
    ("e12_behmod", e12_behmod);
    ("e13_hier", e13_hier);
    ("e14_tscan", e14_tscan);
    ("e15_testtime", e15_testtime);
    ("e16_rtl_scan", e16_rtl_scan);
    ("e17_insitu", e17_insitu);
    ("flows", flows);
  ]
