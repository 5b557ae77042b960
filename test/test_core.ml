open Hft_cdfg
open Hft_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let resources =
  [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1); (Op.Logic_unit, 1) ]

let sched_of g = Hft_hls.List_sched.schedule g ~resources

(* ------------------------------------------------------------------ *)
(* Scan_vars                                                          *)
(* ------------------------------------------------------------------ *)

let test_scan_vars_break_all () =
  List.iter
    (fun name ->
      let g = Bench_suite.by_name name in
      let sched = sched_of g in
      List.iter
        (fun (tag, sel) ->
          check
            (Printf.sprintf "%s/%s breaks all loops" name tag)
            true
            (Scan_vars.breaks_all g sel.Scan_vars.scan_vars))
        [ ("mfvs", Scan_vars.select_mfvs g sched);
          ("effective", Scan_vars.select_effective g sched);
          ("boundary", Scan_vars.select_boundary g sched) ])
    [ "diffeq"; "ewf"; "iir4"; "ar_lattice" ]

let test_scan_vars_sharing_helps () =
  (* The effectiveness selector never needs more scan registers than
     the vertex-minimal baseline on the benchmark suite. *)
  List.iter
    (fun name ->
      let g = Bench_suite.by_name name in
      let sched = sched_of g in
      let mfvs = Scan_vars.select_mfvs g sched in
      let eff = Scan_vars.select_effective g sched in
      check
        (Printf.sprintf "%s: effective (%d regs) <= mfvs (%d regs)" name
           eff.Scan_vars.n_scan_registers mfvs.Scan_vars.n_scan_registers)
        true
        (eff.Scan_vars.n_scan_registers <= mfvs.Scan_vars.n_scan_registers))
    [ "diffeq"; "ewf"; "iir4"; "ar_lattice" ]

let test_scan_vars_acyclic_graph_empty () =
  let g = Bench_suite.tseng () in
  let sched = sched_of g in
  let sel = Scan_vars.select_effective g sched in
  check_int "no loops, no scan" 0 (List.length sel.Scan_vars.scan_vars);
  check_int "no scan registers" 0 sel.Scan_vars.n_scan_registers

(* ------------------------------------------------------------------ *)
(* Io_reg_assign                                                      *)
(* ------------------------------------------------------------------ *)

let test_io_assign_improves () =
  List.iter
    (fun name ->
      let g = Bench_suite.by_name name in
      let sched = sched_of g in
      let conv = Io_reg_assign.assign_conventional g sched in
      let io = Io_reg_assign.assign g sched in
      check
        (Printf.sprintf "%s: io regs %d >= conventional %d" name
           io.Io_reg_assign.n_io_registers conv.Io_reg_assign.n_io_registers)
        true
        (io.Io_reg_assign.n_io_registers >= conv.Io_reg_assign.n_io_registers);
      check (name ^ ": register count close") true
        (io.Io_reg_assign.n_registers <= conv.Io_reg_assign.n_registers + 2))
    [ "tseng"; "diffeq"; "ewf"; "fir8" ]

let test_io_assign_valid () =
  let g = Bench_suite.ewf () in
  let sched = sched_of g in
  let io = Io_reg_assign.assign g sched in
  let info = Lifetime.compute g sched in
  Hft_hls.Reg_alloc.validate g info io.Io_reg_assign.alloc

(* ------------------------------------------------------------------ *)
(* Sim_sched_assign — including the paper's Figure 1                  *)
(* ------------------------------------------------------------------ *)

let test_fig1_loop_avoidance () =
  let g = Paper_fig1.graph () in
  (* The paper's (b) binding creates an assignment loop; the
     loop-aware binder under the same 2-adder constraint finds a
     loop-free binding like (c). *)
  let sched_b = Paper_fig1.schedule_b g in
  let binding_b = Hft_hls.Fu_bind.of_class_indices g sched_b Paper_fig1.binding_b in
  check "paper binding (b) has an assignment loop" true
    (Sim_sched_assign.assignment_loops g binding_b > 0);
  let sched_c = Paper_fig1.schedule_c g in
  let binding_c = Hft_hls.Fu_bind.of_class_indices g sched_c Paper_fig1.binding_c in
  check_int "paper binding (c) is loop-free" 0
    (Sim_sched_assign.assignment_loops g binding_c);
  let r = Sim_sched_assign.run ~resources:[ (Op.Alu, 2) ] g None in
  check_int "loop-aware binder avoids the loop" 0
    r.Sim_sched_assign.est_assignment_loops;
  Hft_hls.Fu_bind.validate g r.Sim_sched_assign.sched r.Sim_sched_assign.binding

(* Reference for [assignment_loops]: the per-pair search it replaced.
   Is there a path [u] -> .. -> [v] in the prebuilt op graph [dg] whose
   interior leaves [members]?  A direct edge does not count. *)
let escaping_path_ref dg members u v =
  let inside o = o = u || o = v || List.mem o members in
  let seen = Array.make (Hft_util.Digraph.order dg) false in
  let q = Queue.create () in
  let visit w =
    if (not (inside w)) && not seen.(w) then begin
      seen.(w) <- true;
      Queue.add w q
    end
  in
  List.iter visit (Hft_util.Digraph.succ dg u);
  let found = ref false in
  while not (Queue.is_empty q) do
    List.iter
      (fun x -> if x = v then found := true else visit x)
      (Hft_util.Digraph.succ dg (Queue.take q))
  done;
  !found

let assignment_loops_ref g (b : Hft_hls.Fu_bind.t) =
  let dg = Graph.op_graph g in
  Array.fold_left
    (fun acc (_, ops) ->
      List.fold_left
        (fun acc u ->
          List.fold_left
            (fun acc v ->
              if u <> v && escaping_path_ref dg ops u v then acc + 1 else acc)
            acc ops)
        acc ops)
    0 b.Hft_hls.Fu_bind.instances

let test_assignment_loops_match_reference () =
  let same tag g b =
    check_int tag (assignment_loops_ref g b)
      (Sim_sched_assign.assignment_loops g b)
  in
  let g = Paper_fig1.graph () in
  same "fig1 (b)" g
    (Hft_hls.Fu_bind.of_class_indices g (Paper_fig1.schedule_b g)
       Paper_fig1.binding_b);
  same "fig1 (c)" g
    (Hft_hls.Fu_bind.of_class_indices g (Paper_fig1.schedule_c g)
       Paper_fig1.binding_c);
  List.iter
    (fun (name, g) ->
      let sched = sched_of g in
      same (name ^ " left-edge") g
        (Hft_hls.Fu_bind.left_edge ~resources g sched);
      same (name ^ " sched-assign") g
        (Sim_sched_assign.run ~resources g None).Sim_sched_assign.binding)
    (Bench_suite.all ());
  (* Random graphs under random first-fit-or-open bindings: many shared
     instances, with and without feedback. *)
  let rng = Hft_util.Rng.create 33 in
  for i = 0 to 119 do
    let n = 8 + Hft_util.Rng.int rng 53 in
    let g =
      Bench_suite.random rng ~n_inputs:(max 1 (n / 8)) ~n_ops:n
        ~p_feedback:[| 0.0; 0.1; 0.3 |].(i mod 3)
    in
    let choose _ ~op:_ ~candidates ~can_open =
      let k = List.length candidates in
      if can_open && Hft_util.Rng.int rng (k + 1) = k then `Open
      else if k = 0 then `Open
      else `Use (List.nth candidates (Hft_util.Rng.int rng k))
    in
    let b = Hft_hls.Fu_bind.bind ~choose g (sched_of g) in
    same (Printf.sprintf "random %d (%d ops)" i n) g b
  done

let test_ssa_no_worse_than_conventional () =
  List.iter
    (fun name ->
      let g = Bench_suite.by_name name in
      let conv = Sim_sched_assign.conventional ~resources g in
      let aware = Sim_sched_assign.run ~resources g None in
      check
        (Printf.sprintf "%s: aware loops %d <= conventional %d" name
           aware.Sim_sched_assign.est_assignment_loops
           conv.Sim_sched_assign.est_assignment_loops)
        true
        (aware.Sim_sched_assign.est_assignment_loops
         <= conv.Sim_sched_assign.est_assignment_loops))
    [ "tseng"; "diffeq"; "ewf"; "iir4" ]

(* ------------------------------------------------------------------ *)
(* Controller DFT                                                     *)
(* ------------------------------------------------------------------ *)

let test_controller_dft_reduces_implications () =
  let g = Bench_suite.diffeq () in
  let r = Flow.synthesize_conventional ~width:4 g in
  let rep = Controller_dft.harden r.Flow.datapath in
  check "implications reduced" true
    (rep.Controller_dft.implications_after
     < rep.Controller_dft.implications_before);
  check "few vectors" true (rep.Controller_dft.extra_vectors <= 8)

(* ------------------------------------------------------------------ *)
(* Behav_mod                                                          *)
(* ------------------------------------------------------------------ *)

let test_behav_mod_test_statements () =
  let b = Builder.create "hard" in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let s = Builder.binop b Op.Add x y ~name:"s" in
  let c = Builder.binop b Op.Lt s y ~name:"c" in
  Builder.mark_output b c;
  let g = Builder.finish b in
  let rep = Behav_mod.add_test_statements g in
  check "hard before" true (rep.Behav_mod.hard_before > 0);
  check_int "no hard after" 0 rep.Behav_mod.hard_after;
  (* Behaviour itself unchanged on the original outputs. *)
  let rng = Hft_util.Rng.create 1 in
  check "behaviour preserved" true
    (Transform.equivalent ~width:8 ~trials:30 rng g rep.Behav_mod.graph)

let test_deflection_flow () =
  let g = Bench_suite.ar_lattice () in
  let rep =
    Behav_mod.deflect_for_scan_sharing ~max_tries:4
      ~resources:[ (Op.Multiplier, 2); (Op.Alu, 2) ] g
  in
  check "scan regs never increase" true
    (rep.Behav_mod.scan_regs_after <= rep.Behav_mod.scan_regs_before);
  (* When deflections were applied, behaviour is preserved. *)
  if rep.Behav_mod.deflections > 0 then begin
    let rng = Hft_util.Rng.create 2 in
    check "behaviour preserved" true
      (Transform.equivalent ~width:8 ~trials:20 rng g rep.Behav_mod.graph_defl)
  end

(* ------------------------------------------------------------------ *)
(* Hier_test                                                          *)
(* ------------------------------------------------------------------ *)

let test_justify_simple () =
  let g = Bench_suite.tseng () in
  let t1 = Graph.var_by_name g "t1" in
  (match Hier_test.justify ~width:8 g ~wanted:[ (t1, 42) ] with
   | None -> Alcotest.fail "t1 should be justifiable (i1 + i2)"
   | Some pis ->
     let all =
       List.map
         (fun v ->
           match List.assoc_opt v.Graph.v_name pis with
           | Some x -> (v.Graph.v_name, x)
           | None -> (v.Graph.v_name, 0))
         (Graph.inputs g)
     in
     let r = Graph.run ~width:8 g ~inputs:all () in
     check_int "t1 = 42" 42 (Graph.value_of g r "t1"))

let test_justify_conflict_detected () =
  (* s = x + y, p = s * s: wanting s = 3 and s = 4 simultaneously is
     impossible. *)
  let b = Builder.create "conflict" in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let s = Builder.binop b Op.Add x y ~name:"s" in
  let p = Builder.binop b Op.Mul s s ~name:"p" in
  Builder.mark_output b p;
  let g = Builder.finish b in
  check "conflicting demands rejected" true
    (Hier_test.justify ~width:8 g ~wanted:[ (s, 3); (s, 4) ] = None)

let test_environment_and_compose () =
  (* diffeq's m6 = u * dx feeds yl = y + m6 with y justifiable to 0,
     and yl is a primary output: a textbook test environment. *)
  let g = Bench_suite.diffeq () in
  let m6_op =
    match Graph.producer g (Graph.var_by_name g "m6") with
    | Some o -> o.Graph.o_id
    | None -> Alcotest.fail "no producer"
  in
  match Hier_test.environment ~width:8 g m6_op with
  | None -> Alcotest.fail "m6 should have a test environment"
  | Some env ->
    let pairs = [ (3, 5); (7, 9); (0, 1); (13, 2) ] in
    let c = Hier_test.compose ~width:8 g env pairs in
    check_int "all vectors translated" (List.length pairs)
      c.Hier_test.vectors_translated;
    check_int "all vectors confirmed" (List.length pairs)
      c.Hier_test.vectors_confirmed

let test_environment_absent_when_unjustifiable () =
  (* tseng's t5 = t3 * t4: justifying t3 and t4 simultaneously needs
     i1 = 0 (for t4's Or) and i1 = a (for t3's chain) — impossible, so
     no environment may be claimed. *)
  let g = Bench_suite.tseng () in
  let t5_op =
    match Graph.producer g (Graph.var_by_name g "t5") with
    | Some o -> o.Graph.o_id
    | None -> Alcotest.fail "no producer"
  in
  check "t5 has no (validated) environment" true
    (Hier_test.environment ~width:8 g t5_op = None)

let prop_justify_really_justifies =
  QCheck.Test.make ~name:"justify bindings achieve the requested value"
    ~count:80
    QCheck.(pair (int_bound 100000) (int_bound 255))
    (fun (seed, value) ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:4 ~n_ops:10 ~p_feedback:0.0 in
      (* Pick any intermediate variable and try to justify it. *)
      let nv = Graph.n_vars g in
      let v = Hft_util.Rng.int rng nv in
      match (Graph.var g v).Graph.v_kind with
      | Graph.V_const _ -> true
      | _ ->
        (match Hier_test.justify ~width:8 g ~wanted:[ (v, value) ] with
         | None -> true (* unjustifiable is a legal answer *)
         | Some pis ->
           let all =
             List.map
               (fun inp ->
                 match List.assoc_opt inp.Graph.v_name pis with
                 | Some x -> (inp.Graph.v_name, x)
                 | None -> (inp.Graph.v_name, 0))
               (Graph.inputs g)
           in
           let r = Graph.run ~width:8 g ~inputs:all () in
           List.assoc v r land 0xFF = value land 0xFF))

let test_coverage_repair () =
  let g = Bench_suite.diffeq () in
  let sched = sched_of g in
  let binding = Hft_hls.Fu_bind.left_edge ~resources g sched in
  let covered, uncovered = Hier_test.covered_instances ~width:8 g binding in
  check "some instances covered" true (List.length covered > 0);
  if uncovered <> [] then begin
    let g', points = Hier_test.ensure_coverage ~width:8 g binding in
    check "points added" true (points > 0);
    let _, uncovered' = Hier_test.covered_instances ~width:8 g' binding in
    check "coverage improved" true
      (List.length uncovered' < List.length uncovered)
  end

(* ------------------------------------------------------------------ *)
(* Flows                                                              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Pattern store                                                      *)
(* ------------------------------------------------------------------ *)

let test_pattern_store () =
  let ps = Pattern_store.create () in
  check_int "empty" 0 (Pattern_store.size ps);
  Pattern_store.add ps [| true; false |];
  Pattern_store.add ps [| false; true; true |];
  check_int "two rows" 2 (Pattern_store.size ps);
  let rows = Pattern_store.patterns ps in
  check "insertion order" true
    (rows.(0) = [| true; false |] && rows.(1) = [| false; true; true |]);
  (* Fitting: truncate/zero-pad to width, then random fill to n_min. *)
  let rng = Hft_util.Rng.create 9 in
  let p = Pattern_store.padded ps ~rng ~n_min:10 ~width:2 in
  check "at least n_min rows" true (Array.length p >= 10);
  check "stored rows lead" true
    (p.(0) = [| true; false |] && p.(1) = [| false; true |]);
  Array.iter (fun row -> check_int "uniform width" 2 (Array.length row)) p;
  let wide = Pattern_store.padded ps ~rng ~n_min:2 ~width:4 in
  check "zero padding" true (wide.(0) = [| true; false; false; false |])

let test_flows_run_everywhere () =
  List.iter
    (fun (name, g) ->
      let conv = Flow.synthesize_conventional ~width:4 g in
      check (name ^ " conventional no overhead") true
        (abs_float conv.Flow.report.Flow.area_overhead < 1e-9);
      let ps = Flow.synthesize_for_partial_scan ~width:4 g in
      check_int (name ^ " partial scan: loop-free") 0
        ps.Flow.report.Flow.datapath_loops;
      let bist = Flow.synthesize_for_bist ~width:4 g in
      check (name ^ " bist has test registers") true
        (bist.Flow.report.Flow.n_test_registers > 0);
      check (name ^ " bist sessions >= 1") true
        (bist.Flow.report.Flow.test_sessions >= 1))
    (Bench_suite.all ())

let test_flow_datapaths_still_correct () =
  let rng = Hft_util.Rng.create 77 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (tag, r) ->
          check
            (Printf.sprintf "%s/%s datapath equivalent" name tag)
            true
            (Hft_hls.Datapath_gen.check_against_behaviour ~width:4 ~trials:10
               rng g r.Flow.datapath))
        [ ("conv", Flow.synthesize_conventional ~width:4 g);
          ("scan", Flow.synthesize_for_partial_scan ~width:4 g);
          ("bist", Flow.synthesize_for_bist ~width:4 g) ])
    (Bench_suite.all ())

let prop_flows_on_random_cdfgs =
  QCheck.Test.make ~name:"all flows sound on random CDFGs" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g =
        Bench_suite.random rng ~n_inputs:4 ~n_ops:12 ~p_feedback:0.25
      in
      let conv = Flow.synthesize_conventional ~width:4 g in
      let ps = Flow.synthesize_for_partial_scan ~width:4 g in
      let bist = Flow.synthesize_for_bist ~width:4 g in
      (* Partial scan always ends loop-free; all three datapaths remain
         behaviourally correct. *)
      ps.Flow.report.Flow.datapath_loops = 0
      && List.for_all
           (fun r ->
             Hft_hls.Datapath_gen.check_against_behaviour ~width:4 ~trials:5
               rng g r.Flow.datapath)
           [ conv; ps; bist ])

(* ------------------------------------------------------------------ *)
(* Failure injection: the checkers actually catch broken artefacts    *)
(* ------------------------------------------------------------------ *)

let test_injected_datapath_bug_caught () =
  (* Drop one Exec transfer: the equivalence checker must notice. *)
  let g = Bench_suite.tseng () in
  let r = Flow.synthesize_conventional ~width:6 g in
  let d = r.Flow.datapath in
  let broken =
    { d with
      Hft_rtl.Datapath.transfers =
        (let dropped = ref false in
         List.filter
           (fun (_, m) ->
             match m with
             | Hft_rtl.Datapath.Exec _ when not !dropped ->
               dropped := true;
               false
             | _ -> true)
           d.Hft_rtl.Datapath.transfers) }
  in
  let rng = Hft_util.Rng.create 99 in
  Alcotest.(check bool) "broken datapath detected" false
    (Hft_hls.Datapath_gen.check_against_behaviour ~width:6 ~trials:20 rng g
       broken)

let test_injected_gate_bug_caught () =
  (* Flip one gate kind in the expansion: gate-vs-RTL comparison must
     fail on some vector. *)
  let g = Bench_suite.tseng () in
  let r = Flow.synthesize_conventional ~width:6 g in
  let ex = Hft_gate.Expand.of_datapath r.Flow.datapath in
  let nl = ex.Hft_gate.Expand.netlist in
  (* Find an And gate and rewire it as Or by rebuilding: netlist kinds
     are immutable, so instead swap two fanins of an Xor-feeding gate —
     pick a Mux2 and swap its data inputs. *)
  let mux =
    let found = ref None in
    for v = 0 to Hft_gate.Netlist.n_nodes nl - 1 do
      if !found = None && Hft_gate.Netlist.kind nl v = Hft_gate.Netlist.Mux2
      then found := Some v
    done;
    match !found with Some v -> v | None -> Alcotest.fail "no mux"
  in
  let fi = Hft_gate.Netlist.fanin nl mux in
  let a = fi.(1) and b = fi.(2) in
  if a <> b then begin
    Hft_gate.Netlist.set_fanin nl mux 1 b;
    Hft_gate.Netlist.set_fanin nl mux 2 a;
    let rng = Hft_util.Rng.create 5 in
    let differs = ref false in
    for _ = 1 to 20 do
      let inputs =
        List.map
          (fun v -> (v.Graph.v_name, Hft_util.Rng.int rng 64))
          (Graph.inputs g)
      in
      let rtl_outs, _ = Hft_rtl.Datapath.simulate r.Flow.datapath ~inputs () in
      let gate_outs =
        Hft_gate.Expand.run_iteration r.Flow.datapath ex ~inputs ()
      in
      if List.exists (fun (n, v) -> List.assoc n gate_outs <> v) rtl_outs then
        differs := true
    done;
    Alcotest.(check bool) "swapped mux detected" true !differs
  end

let test_injected_scan_chain_break_caught () =
  (* Cut the chain between two cells: shift integrity must fail. *)
  let g = Bench_suite.tseng () in
  let r = Flow.synthesize_conventional ~width:4 g in
  let ex = Hft_gate.Expand.of_datapath r.Flow.datapath in
  let chain = Hft_scan.Full_scan.insert ex.Hft_gate.Expand.netlist in
  Alcotest.(check bool) "intact chain shifts" true
    (Hft_scan.Chain.verify_shift chain);
  (* Break: make the second cell's scan mux take scan_in instead of the
     first cell's Q. *)
  (match chain.Hft_scan.Chain.cells with
   | _ :: c2 :: _ ->
     let nl = chain.Hft_scan.Chain.netlist in
     let mux = (Hft_gate.Netlist.fanin nl c2).(0) in
     Hft_gate.Netlist.set_fanin nl mux 2 chain.Hft_scan.Chain.scan_in;
     Alcotest.(check bool) "broken chain caught" false
       (Hft_scan.Chain.verify_shift chain)
   | _ -> Alcotest.fail "chain too short")

(* ------------------------------------------------------------------ *)
(* Flight recorder over a real campaign                               *)
(* ------------------------------------------------------------------ *)

let run_fig1_campaign () =
  let g = Paper_fig1.graph () in
  let r = Flow.synthesize ~width:4 Flow.Partial_scan g in
  Flow.test_campaign ~backtrack_limit:20 ~max_frames:2 ~sample:4 ~seed:7
    ~n_patterns:32 r

let test_campaign_waterfall_conserves () =
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
  @@ fun () ->
  Hft_obs.with_enabled true @@ fun () ->
  let c = run_fig1_campaign () in
  let waterfall = Hft_obs.Ledger.waterfall () in
  check_int "outcome classes sum to the collapsed total"
    (Hft_obs.Ledger.n_classes ())
    (List.fold_left (fun acc (_, (cl, _)) -> acc + cl) 0 waterfall);
  check_int "outcome faults sum to the sampled total"
    (List.length c.Flow.c_faults)
    (List.fold_left (fun acc (_, (_, fa)) -> acc + fa) 0 waterfall);
  check "campaign resolved every class" true
    (List.assoc_opt "never_targeted" waterfall = Some (0, 0));
  check "dropping happened" true
    (match List.assoc_opt "drop_detected" waterfall with
     | Some (cl, _) -> cl > 0
     | None -> false);
  (* Detected classes name real test ids, and every annotated test maps
     to rows that exist in the campaign's pattern store. *)
  let n_tests = Hft_obs.Ledger.n_tests () in
  check "tests were generated" true (n_tests > 0);
  List.iter
    (fun (row : Hft_obs.Ledger.row) ->
      match row.Hft_obs.Ledger.lr_resolution with
      | Hft_obs.Ledger.Drop_detected { test }
      | Hft_obs.Ledger.Podem_detected { test; _ } ->
        check
          (Printf.sprintf "class %d cites a registered test"
             row.Hft_obs.Ledger.lr_class)
          true
          (test >= 0 && test < n_tests)
      | _ -> ())
    (Hft_obs.Ledger.rows ());
  List.iter
    (fun (t : Hft_obs.Ledger.test) ->
      match t.Hft_obs.Ledger.lt_rows with
      | Some (first, n) ->
        check
          (Printf.sprintf "test %d rows inside the pattern store"
             t.Hft_obs.Ledger.lt_id)
          true
          (first >= 0 && n > 0 && first + n <= c.Flow.c_patterns_stored)
      | None ->
        Alcotest.failf "test %d has no pattern-store rows"
          t.Hft_obs.Ledger.lt_id)
    (Hft_obs.Ledger.tests ())

let test_campaign_unchanged_when_disabled () =
  (* The flight recorder must not perturb the engines: the same campaign
     with observability off yields identical ATPG stats and coverage,
     and records nothing. *)
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
  @@ fun () ->
  let on = Hft_obs.with_enabled true run_fig1_campaign in
  let on_waterfall = Hft_obs.Ledger.waterfall () in
  Hft_obs.reset ();
  let off = Hft_obs.with_enabled false run_fig1_campaign in
  check "atpg stats identical with recorder off" true
    (on.Flow.c_atpg = off.Flow.c_atpg);
  check "pattern counts identical" true
    (on.Flow.c_patterns_stored = off.Flow.c_patterns_stored);
  check "fsim coverage identical" true
    (Hft_gate.Fsim.coverage on.Flow.c_fsim
     = Hft_gate.Fsim.coverage off.Flow.c_fsim);
  check "disabled run recorded no metrics" true
    (Hft_obs.Registry.snapshot () = []);
  check_int "disabled run has no ledger rows" 0 (Hft_obs.Ledger.n_classes ());
  check "enabled run had resolved classes" true
    (List.exists (fun (_, (cl, _)) -> cl > 0) on_waterfall)

(* Every ledger row's charged fault-simulation events, pinned: traced
   partial-scan campaigns of tseng and diffeq at width 4 over the whole
   fault universe, with [hft report]'s settings.  The digest covers each
   row's representative, resolution and [fsim_events], plus each run's
   [hft.fsim.events] total, and was recorded before charges were cached
   per class: a drop engine that charges any class differently moves it,
   even where every verdict and the coverage stay the same. *)
let test_ledger_charges_pinned () =
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
  @@ fun () ->
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun name ->
      Hft_obs.reset ();
      Hft_obs.with_enabled true (fun () ->
          let r =
            Flow.synthesize ~width:4 Flow.Partial_scan
              (List.assoc name (Bench_suite.all ()))
          in
          ignore
            (Flow.test_campaign ~backtrack_limit:50 ~max_frames:3 ~sample:1
               ~seed:2024 ~n_patterns:64 r));
      List.iter
        (fun (row : Hft_obs.Ledger.row) ->
          Printf.bprintf buf "%s %s %d\n" row.Hft_obs.Ledger.lr_rep
            (Hft_obs.Ledger.resolution_key row.Hft_obs.Ledger.lr_resolution)
            row.Hft_obs.Ledger.lr_fsim_events)
        (Hft_obs.Ledger.rows ());
      Printf.bprintf buf "%s hft.fsim.events %d\n" name
        (Hft_obs.Registry.count "hft.fsim.events"))
    [ "tseng"; "diffeq" ];
  Alcotest.(check string) "ledger charges digest"
    "79dd3745aa7fc6a588a3a54ba6ea35ac"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* [~sample:0] (keep one fault in 0) is bad input: a typed error raised
   before the campaign expands or samples anything. *)
let test_campaign_rejects_sample_zero () =
  let r = Flow.synthesize ~width:4 Flow.Partial_scan (Paper_fig1.graph ()) in
  match Flow.test_campaign ~sample:0 r with
  | _ -> Alcotest.fail "sample 0 accepted"
  | exception Hft_robust.Validation.Invalid d ->
    Alcotest.(check string) "site" "flow.test_campaign"
      d.Hft_robust.Validation.site

(* ------------------------------------------------------------------ *)
(* Documents: hft-report/1, hft-profile/1, hft-bench/1                *)
(* ------------------------------------------------------------------ *)

let read_file file = In_channel.with_open_bin file In_channel.input_all

let read_tape file =
  match Hft_obs.Ledger.of_jsonl (read_file file) with
  | Ok tape -> Forensics.Tape (file, tape)
  | Error msg -> Alcotest.failf "%s: %s" file msg

let parse_json text =
  match Hft_util.Json.parse text with
  | Ok j -> j
  | Error msg -> Alcotest.fail msg

let member_text k j =
  match Hft_util.Json.member k j with
  | Some v -> Hft_util.Json.to_string v
  | None -> Alcotest.failf "no %s" k

(* The documents, pinned.  A traced fig1b partial-scan campaign at
   [hft report]'s knobs renders its report live and from the tape it
   wrote, text and JSON.  Each digest is the MD5 of the stdout of the
   matching command, recorded from the CLI before the documents moved
   into the library:
     hft report --bench fig1b --flow partial-scan [--json]
       --ledger-out documents_pinned.jsonl
     hft report --journal-in documents_pinned.jsonl [--json]
   Then the quick bench matrix at 1, 2 and 4 domains must reproduce
   every deterministic field of the committed BENCH_hft.json, and hold
   on its own what that file holds: guidance flips no verdict and
   aborts no more classes than the unguided leg, and every jobs leg does
   its sequential cell's engine work. *)
let test_documents_pinned () =
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
  @@ fun () ->
  let file = "documents_pinned.jsonl" in
  let live =
    Forensics.Live
      (Forensics.run ~tape:file ~bench:"fig1b" ~width:8 ~sample:1
         Flow.Partial_scan (Paper_fig1.graph ()))
  in
  let tape = read_tape file in
  Sys.remove file;
  List.iter
    (fun (what, digest, doc) ->
      Alcotest.(check string) what digest (Digest.to_hex (Digest.string doc)))
    [ ("live report", "cef9768b3c511a9c6e40bdf01792ec87",
       Forensics.report ~json:false ~top:10 live);
      ("live report json", "5061b0479bde0c7709fcca63890b2334",
       Forensics.report ~json:true ~top:10 live);
      ("tape report", "7df1f840a96414160aa988deb38de5cf",
       Forensics.report ~json:false ~top:10 tape);
      ("tape report json", "ff8fa0dac41c909350ad7c093b1d59c0",
       Forensics.report ~json:true ~top:10 tape) ];
  let doc, _ =
    Bench_matrix.run ~quick:true ~width:4 ~naive:false ~jobs:[ 1; 2; 4 ]
  in
  let committed = parse_json (read_file "../BENCH_hft.json") in
  let list k j =
    match Hft_util.Json.member k j with
    | Some (Hft_util.Json.List l) -> l
    | _ -> Alcotest.failf "no list %s" k
  in
  let same cell keys fresh old =
    List.iter
      (fun k ->
        Alcotest.(check string) (cell ^ " " ^ k) (member_text k old)
          (member_text k fresh))
      keys
  in
  let aborted j =
    Option.bind (Hft_util.Json.member "waterfall" j) (fun w ->
        Option.bind (Hft_util.Json.member "aborted" w)
          (Hft_util.Json.member_int "classes"))
    |> Option.get
  in
  let engine_work =
    [ "faults"; "podem_backtracks"; "fsim_events"; "atpg_coverage";
      "fsim_coverage"; "waterfall" ]
  in
  List.iter2
    (fun fresh old ->
      let cell = member_text "bench" old ^ "/" ^ member_text "flow" old in
      same cell
        [ "bench"; "flow"; "faults"; "podem_backtracks"; "fsim_events";
          "patterns_stored"; "waterfall"; "report" ]
        fresh old;
      let guided j = Option.get (Hft_util.Json.member "guided" j) in
      same (cell ^ " guided") [ "verdict_flips"; "waterfall" ] (guided fresh)
        (guided old);
      Alcotest.(check string) (cell ^ " guided verdict flips") "0"
        (member_text "verdict_flips" (guided fresh));
      check (cell ^ " guided aborts no more classes") true
        (aborted (guided fresh) <= aborted fresh);
      List.iter
        (fun leg ->
          same (cell ^ " jobs leg = sequential") engine_work leg fresh)
        (list "jobs_matrix" fresh);
      List.iter2
        (same (cell ^ " jobs leg") ("jobs" :: engine_work))
        (list "jobs_matrix" fresh) (list "jobs_matrix" old))
    (list "results" doc) (list "results" committed)

(* A taped campaign's report renders the same waterfall and expensive
   rows live and from its tape, whatever the domain count. *)
let test_live_equals_tape () =
  let file = Filename.temp_file "live_tape" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Hft_obs.enabled := false;
      Hft_obs.reset ())
  @@ fun () ->
  List.iter
    (fun jobs ->
      let live =
        Forensics.Live
          (Forensics.run ~jobs ~tape:file ~bench:"fig1b" ~width:8 ~sample:1
             Flow.Partial_scan (Paper_fig1.graph ()))
      in
      let tape = read_tape file in
      let report = parse_json (Forensics.report ~json:true ~top:10 live) in
      List.iter
        (fun (what, k, doc) ->
          Alcotest.(check string)
            (Printf.sprintf "-j%d %s %s" jobs what k)
            (member_text k report)
            (member_text k (parse_json doc)))
        [ ("tape report", "waterfall", Forensics.report ~json:true ~top:10 tape);
          ("tape report", "expensive", Forensics.report ~json:true ~top:10 tape)
        ])
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Tool survey                                                        *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Synthesis pin                                                      *)
(* ------------------------------------------------------------------ *)

(* Everything a synthesis run decides, printed exactly: schedule,
   binding, register map, DFT report and area. *)
let print_synthesis buf label (r : Flow.result) =
  let ints a = String.concat "," (List.map string_of_int a) in
  let b = r.Flow.binding and a = r.Flow.alloc and d = r.Flow.report in
  Printf.bprintf buf "%s\nstart %s\nfu %s\n" label
    (ints (Array.to_list r.Flow.sched.Schedule.start))
    (ints (Array.to_list b.Hft_hls.Fu_bind.fu_of_op));
  Array.iter
    (fun (cl, ops) ->
      Printf.bprintf buf "inst %s %s\n" (Op.fu_class_to_string cl) (ints ops))
    b.Hft_hls.Fu_bind.instances;
  Printf.bprintf buf "reg %s n_regs %d\n"
    (ints (Array.to_list a.Hft_hls.Reg_alloc.reg_of_var))
    a.Hft_hls.Reg_alloc.n_regs;
  Printf.bprintf buf "report %s %d %d %d %d %d %d %s %h %d\narea %h\n"
    d.Flow.flow d.Flow.n_registers d.Flow.n_scan_registers
    d.Flow.n_test_registers d.Flow.n_cbilbo d.Flow.datapath_loops
    d.Flow.self_loops
    (match d.Flow.sequential_depth with
     | Some k -> string_of_int k
     | None -> "-")
    d.Flow.area_overhead d.Flow.test_sessions
    (Hft_rtl.Area.datapath_area r.Flow.datapath)

(* The 8 behaviours, the bench/perf synth-random stream (same generator
   calls, each graph under its own flow) and 30 more random draws of 8
   to 97 ops, all at width 4.  The digest was recorded before the
   synthesis searches were made incremental; any change to a schedule,
   binding or register map moves it. *)
let test_synthesis_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  let flows = [ Flow.Conventional; Flow.Partial_scan; Flow.Bist ] in
  let synth label flow g =
    print_synthesis buf
      (Printf.sprintf "%s %s" label (Flow.flow_kind_to_string flow))
      (Flow.synthesize ~width:4 flow g)
  in
  List.iter
    (fun (name, g) -> List.iter (fun f -> synth name f g) flows)
    (Bench_suite.all ());
  let rng = Hft_util.Rng.create 1 in
  List.iteri
    (fun i (flow, n) ->
      synth (Printf.sprintf "stream%d" i) flow
        (Bench_suite.random rng ~n_inputs:(max 1 (n / 8)) ~n_ops:n
           ~p_feedback:0.1))
    [ (Flow.Partial_scan, 56); (Flow.Partial_scan, 56); (Flow.Bist, 160);
      (Flow.Bist, 160); (Flow.Conventional, 1000) ];
  let rng = Hft_util.Rng.create 16 in
  for i = 0 to 29 do
    let n = 8 + (i * 89 / 29) in
    let g =
      Bench_suite.random rng ~n_inputs:(max 1 (n / 8)) ~n_ops:n
        ~p_feedback:[| 0.0; 0.1; 0.3 |].(i mod 3)
    in
    List.iter (fun f -> synth (Printf.sprintf "draw%d" i) f g) flows
  done;
  Alcotest.(check string) "synthesis digest"
    "8ed6a17a997f707d08043d2e8c9b92c6"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_table1 () =
  check_int "seven tools" 7 (List.length Tool_survey.table1);
  let s = Tool_survey.render () in
  List.iter
    (fun e ->
      let contains needle =
        let nh = String.length s and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
        go 0
      in
      check (e.Tool_survey.vendor ^ " present") true
        (contains e.Tool_survey.vendor))
    Tool_survey.table1

let () =
  Alcotest.run "hft_core"
    [
      ( "scan_vars",
        [
          Alcotest.test_case "break all" `Quick test_scan_vars_break_all;
          Alcotest.test_case "sharing helps" `Quick test_scan_vars_sharing_helps;
          Alcotest.test_case "acyclic empty" `Quick
            test_scan_vars_acyclic_graph_empty;
        ] );
      ( "io_reg_assign",
        [
          Alcotest.test_case "improves" `Quick test_io_assign_improves;
          Alcotest.test_case "valid" `Quick test_io_assign_valid;
        ] );
      ( "sim_sched_assign",
        [
          Alcotest.test_case "figure 1" `Quick test_fig1_loop_avoidance;
          Alcotest.test_case "no worse" `Quick test_ssa_no_worse_than_conventional;
          Alcotest.test_case "loops match reference" `Quick
            test_assignment_loops_match_reference;
        ] );
      ( "controller_dft",
        [
          Alcotest.test_case "implications" `Quick
            test_controller_dft_reduces_implications;
        ] );
      ( "behav_mod",
        [
          Alcotest.test_case "test statements" `Quick
            test_behav_mod_test_statements;
          Alcotest.test_case "deflection flow" `Quick test_deflection_flow;
        ] );
      ( "hier_test",
        [
          Alcotest.test_case "justify" `Quick test_justify_simple;
          Alcotest.test_case "conflict" `Quick test_justify_conflict_detected;
          Alcotest.test_case "environment+compose" `Quick
            test_environment_and_compose;
          Alcotest.test_case "no bogus environment" `Quick
            test_environment_absent_when_unjustifiable;
          Alcotest.test_case "coverage repair" `Quick test_coverage_repair;
          QCheck_alcotest.to_alcotest prop_justify_really_justifies;
        ] );
      ( "pattern_store",
        [ Alcotest.test_case "store and pad" `Quick test_pattern_store ] );
      ( "flow",
        [
          Alcotest.test_case "flows run" `Quick test_flows_run_everywhere;
          Alcotest.test_case "datapaths correct" `Quick
            test_flow_datapaths_still_correct;
          QCheck_alcotest.to_alcotest prop_flows_on_random_cdfgs;
          Alcotest.test_case "synthesis pinned" `Quick test_synthesis_pinned;
        ] );
      ( "flight_recorder",
        [
          Alcotest.test_case "waterfall conserves" `Quick
            test_campaign_waterfall_conserves;
          Alcotest.test_case "engines unchanged when disabled" `Quick
            test_campaign_unchanged_when_disabled;
          Alcotest.test_case "sample below 1 rejected" `Quick
            test_campaign_rejects_sample_zero;
          Alcotest.test_case "ledger charges pinned" `Quick
            test_ledger_charges_pinned;
        ] );
      ( "documents",
        [
          Alcotest.test_case "documents pinned" `Quick test_documents_pinned;
          Alcotest.test_case "live = tape" `Quick test_live_equals_tape;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "broken datapath caught" `Quick
            test_injected_datapath_bug_caught;
          Alcotest.test_case "broken expansion caught" `Quick
            test_injected_gate_bug_caught;
          Alcotest.test_case "broken scan chain caught" `Quick
            test_injected_scan_chain_break_caught;
        ] );
      ("tool_survey", [ Alcotest.test_case "table 1" `Quick test_table1 ]);
    ]
