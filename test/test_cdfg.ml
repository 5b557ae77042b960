open Hft_cdfg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Op                                                                 *)
(* ------------------------------------------------------------------ *)

let test_op_eval () =
  let e k args = Op.eval ~width:8 k args in
  check_int "add wraps" 4 (e Op.Add [ 250; 10 ]);
  check_int "sub wraps" 246 (e Op.Sub [ 0; 10 ]);
  check_int "mul masks" 0 (e Op.Mul [ 16; 16 ]);
  check_int "lt signed" 1 (e Op.Lt [ 255; 1 ]) (* -1 < 1 *);
  check_int "gt" 1 (e Op.Gt [ 5; 3 ]);
  check_int "eq modulo width" 1 (e Op.Eq [ 256; 0 ]);
  check_int "and" 0b1000 (e Op.And [ 0b1100; 0b1010 ]);
  check_int "xor" 0b0110 (e Op.Xor [ 0b1100; 0b1010 ]);
  check_int "shl" 8 (e Op.Shl [ 1; 3 ]);
  check_int "shr" 1 (e Op.Shr [ 8; 3 ]);
  check_int "move" 42 (e Op.Move [ 42 ])

let test_op_identity () =
  check "add id" true (Op.identity_on Op.Add 0 = Some 0);
  check "mul id" true (Op.identity_on Op.Mul 1 = Some 1);
  check "sub right id" true (Op.identity_on Op.Sub 1 = Some 0);
  check "sub left no id" true (Op.identity_on Op.Sub 0 = None);
  check "lt no id" true (Op.identity_on Op.Lt 0 = None)

let test_op_transparency () =
  check "add transparent" true (Op.transparency Op.Add 0 = `Identity 0);
  check "mul transparent" true (Op.transparency Op.Mul 0 = `Identity 1);
  check "sub port1 invertible" true (Op.transparency Op.Sub 1 = `Invertible 0);
  check "lt opaque" true (Op.transparency Op.Lt 0 = `Opaque)

(* ------------------------------------------------------------------ *)
(* Builder / Graph                                                    *)
(* ------------------------------------------------------------------ *)

let tiny () =
  let b = Builder.create "tiny" in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let s = Builder.binop b Op.Add x y ~name:"s" in
  let p = Builder.binop b Op.Mul s y ~name:"p" in
  Builder.mark_output b p;
  Builder.finish b

let test_builder_basic () =
  let g = tiny () in
  check_int "vars" 4 (Graph.n_vars g);
  check_int "ops" 2 (Graph.n_ops g);
  check_int "inputs" 2 (List.length (Graph.inputs g));
  check_int "outputs" 1 (List.length (Graph.outputs g));
  let p = Graph.var_by_name g "p" in
  check "p is output" true (Graph.is_output g p);
  (match Graph.producer g p with
   | Some o -> check "producer kind" true (o.Graph.o_kind = Op.Mul)
   | None -> Alcotest.fail "no producer");
  let s = Graph.var_by_name g "s" in
  check_int "s consumers" 1 (List.length (Graph.consumers g s))

let test_run_semantics () =
  let g = tiny () in
  let r = Graph.run ~width:16 g ~inputs:[ ("x", 3); ("y", 4) ] () in
  check_int "p = (3+4)*4" 28 (Graph.value_of g r "p")

let test_diffeq_runs () =
  let g = Bench_suite.diffeq () in
  check_int "11 ops" 11 (Graph.n_ops g);
  check_int "3 states" 3 (List.length (Graph.state_vars g));
  let r =
    Graph.run ~width:16 g
      ~inputs:[ ("x", 1); ("y", 2); ("u", 3); ("dx", 1); ("a", 10) ]
      ()
  in
  (* xl = x+dx = 2; yl = y + u*dx = 5; ul = u - 3*x*u*dx - 3*y*dx = 3-9-6 *)
  check_int "xl" 2 (Graph.value_of g r "xl");
  check_int "yl" 5 (Graph.value_of g r "yl");
  check_int "ul" ((3 - 9 - 6) land 0xFFFF) (Graph.value_of g r "ul");
  check_int "cond" 1 (Graph.value_of g r "cond")

let test_op_graph_acyclic () =
  List.iter
    (fun (name, g) ->
      check (name ^ " intra-iteration acyclic") true
        (Hft_util.Digraph.is_acyclic (Graph.op_graph g)))
    (Bench_suite.all ())

let test_feedback_creates_cycles () =
  let g = Bench_suite.diffeq () in
  check "with feedback: cyclic" false
    (Hft_util.Digraph.is_acyclic (Graph.op_graph_with_feedback g))

let test_single_assignment_enforced () =
  let bad () =
    let vars =
      [| { Graph.v_id = 0; v_name = "x"; v_kind = Graph.V_input };
         { Graph.v_id = 1; v_name = "t"; v_kind = Graph.V_intermediate } |]
    in
    let ops =
      [| { Graph.o_id = 0; o_kind = Op.Add; o_args = [| 0; 0 |]; o_result = 1 };
         { Graph.o_id = 1; o_kind = Op.Add; o_args = [| 0; 1 |]; o_result = 1 } |]
    in
    Graph.make ~name:"bad" ~vars ~ops ~feedback:[] ~test_controls:[]
      ~test_observes:[]
  in
  check "double assignment rejected" true
    (match bad () with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_op_profile () =
  let g = Bench_suite.diffeq () in
  let p = Graph.op_profile g in
  check_int "6 multipliers" 6 (List.assoc Op.Multiplier p);
  check_int "4 alu" 4 (List.assoc Op.Alu p);
  check_int "1 cmp" 1 (List.assoc Op.Comparator p)

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_valid () =
  let g = tiny () in
  let s = Schedule.make g ~n_steps:2 [| 1; 2 |] in
  check "valid" true (Schedule.is_valid g s);
  check_int "finish of op0" 1 (Schedule.finish_step s 0)

let test_schedule_dependency_violation () =
  let g = tiny () in
  check "same-step chaining rejected" true
    (match Schedule.make g ~n_steps:2 [| 1; 1 |] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_schedule_multicycle () =
  let g = tiny () in
  (* op0 takes 2 cycles: finishes at 2, so op1 at 3. *)
  let s = Schedule.make g ~n_steps:3 ~latency:[| 2; 1 |] [| 1; 3 |] in
  check "multicycle ok" true (Schedule.is_valid g s);
  check "op0 occupies steps 1-2" true
    (List.mem 0 (Schedule.ops_in_step s 1) && List.mem 0 (Schedule.ops_in_step s 2));
  check "chaining with latency rejected" true
    (match Schedule.make g ~n_steps:3 ~latency:[| 2; 1 |] [| 1; 2 |] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_fu_demand () =
  let g = Bench_suite.diffeq () in
  (* ASAP-ish: all six multiplications spread over steps; construct a
     4-step schedule manually: see op order in Bench_suite.diffeq. *)
  let s = Schedule.make g ~n_steps:4 [| 1; 1; 1; 2; 1; 2; 3; 4; 2; 3; 2 |] in
  let d = Schedule.fu_demand g s in
  check "mult demand >= 3" true (List.assoc Op.Multiplier d >= 3)

(* ------------------------------------------------------------------ *)
(* Lifetime                                                           *)
(* ------------------------------------------------------------------ *)

let test_lifetimes_tiny () =
  let g = tiny () in
  let s = Schedule.make g ~n_steps:2 [| 1; 2 |] in
  let info = Lifetime.compute g s in
  let x = Graph.var_by_name g "x" in
  let sv = Graph.var_by_name g "s" in
  let p = Graph.var_by_name g "p" in
  let y = Graph.var_by_name g "y" in
  check "x alive [0,1)" true (info.Lifetime.intervals.(x) = Hft_util.Interval.make 0 1);
  check "y alive [0,2)" true (info.Lifetime.intervals.(y) = Hft_util.Interval.make 0 2);
  check "s alive [1,2)" true (info.Lifetime.intervals.(sv) = Hft_util.Interval.make 1 2);
  (* p produced at end of step 2 = boundary 2, output persists to
     n_steps = 2: interval [2,2) is empty by our convention — it leaves
     through the output port at the final boundary. *)
  check "x and s don't conflict" false (Lifetime.conflict info x sv);
  check "y and s conflict" true (Lifetime.conflict info y sv);
  ignore p

let test_lifetime_feedback_merge () =
  let g = Bench_suite.diffeq () in
  (* Any valid schedule. *)
  let s = Schedule.make g ~n_steps:4 [| 1; 1; 1; 2; 1; 2; 3; 4; 2; 3; 2 |] in
  let info = Lifetime.compute g s in
  let x = Graph.var_by_name g "x" in
  let xl = Graph.var_by_name g "xl" in
  check "x and xl merged" true (Hft_util.Union_find.same info.Lifetime.merged x xl);
  check "merged pair never conflicts" false (Lifetime.conflict info x xl);
  (* xl persists to the end as feedback source. *)
  check "xl lives to end" true
    (info.Lifetime.intervals.(xl).Hft_util.Interval.hi = 4)

let test_register_candidates () =
  let g = tiny () in
  let s = Schedule.make g ~n_steps:2 [| 1; 2 |] in
  let info = Lifetime.compute g s in
  let cands = Lifetime.register_candidates g info in
  (* x, y, s have non-empty lifetimes; p's conflict interval is empty
     but it is an output, so it still needs storage. *)
  check_int "four register classes" 4 (List.length cands)

(* References for the class table: class lookups and [conflict] as
   defined before [Lifetime] tabulated its classes, scanning
   [Union_find.find] over every variable. *)
let class_members_ref info v =
  let find = Hft_util.Union_find.find info.Lifetime.merged in
  List.filter
    (fun u -> find u = find v)
    (List.init (Array.length info.Lifetime.intervals) Fun.id)

let conflict_ref info u v =
  let open Hft_util in
  let same = Union_find.same info.Lifetime.merged in
  let iv = info.Lifetime.intervals in
  let final_write v =
    List.exists
      (fun u -> iv.(u).Interval.lo = info.Lifetime.n_steps)
      (class_members_ref info v)
    || List.exists (fun (_, dst) -> same dst v) info.Lifetime.wrap_moves
  in
  let held v =
    List.exists
      (fun u -> info.Lifetime.held_final.(u))
      (class_members_ref info v)
  in
  (not (same u v))
  && (List.exists
        (fun a ->
          List.exists
            (fun b -> Interval.overlaps iv.(a) iv.(b))
            (class_members_ref info v))
        (class_members_ref info u)
      || (final_write u && final_write v)
      || (final_write u && held v)
      || (held u && final_write v))

let test_class_table_matches_brute_force () =
  let resources =
    [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1); (Op.Logic_unit, 1) ]
  in
  let rng = Hft_util.Rng.create 12 in
  let randoms =
    List.init 50 (fun i ->
        let n = 8 + Hft_util.Rng.int rng 41 in
        ( Printf.sprintf "random%d" i,
          Bench_suite.random rng ~n_inputs:(max 1 (n / 8)) ~n_ops:n
            ~p_feedback:[| 0.0; 0.1; 0.3 |].(i mod 3) ))
  in
  List.iter
    (fun (name, g) ->
      let sched = Hft_hls.List_sched.schedule g ~resources in
      let info = Lifetime.compute g sched in
      let nv = Graph.n_vars g in
      for u = 0 to nv - 1 do
        if Lifetime.class_members info u <> class_members_ref info u then
          Alcotest.failf "%s: class of %d" name u;
        for v = 0 to nv - 1 do
          if Lifetime.conflict info u v <> conflict_ref info u v then
            Alcotest.failf "%s: conflict %d %d" name u v
        done
      done;
      let binding = Hft_hls.Fu_bind.left_edge ~resources g sched in
      Hft_hls.Reg_alloc.validate g info (Hft_hls.Reg_alloc.left_edge g info);
      Hft_hls.Reg_alloc.validate g info (Hft_hls.Reg_alloc.color g info);
      Hft_hls.Reg_alloc.validate
        ~extra_conflicts:
          (Hft_bist.Reg_assign.self_adjacency_conflicts g binding info)
        g info
        (Hft_bist.Reg_assign.bist_aware g sched binding info))
    (Bench_suite.all () @ randoms)

(* ------------------------------------------------------------------ *)
(* Loops                                                              *)
(* ------------------------------------------------------------------ *)

let test_diffeq_loops () =
  let g = Bench_suite.diffeq () in
  let loops = Loops.enumerate g in
  check "has loops" true (List.length loops > 0);
  (* x, u, y each have a self-feedback loop. *)
  let x = Graph.var_by_name g "x" in
  let u = Graph.var_by_name g "u" in
  let y = Graph.var_by_name g "y" in
  check "x on a loop" true (List.exists (fun l -> List.mem x l.Loops.vars) loops);
  check "u on a loop" true (List.exists (fun l -> List.mem u l.Loops.vars) loops);
  check "y on a loop" true (List.exists (fun l -> List.mem y l.Loops.vars) loops)

let test_loop_breaking () =
  let g = Bench_suite.diffeq () in
  let loops = Loops.enumerate g in
  let x = Graph.var_by_name g "x" in
  let xl = Graph.var_by_name g "xl" in
  let u = Graph.var_by_name g "u" in
  let ul = Graph.var_by_name g "ul" in
  let y = Graph.var_by_name g "y" in
  let yl = Graph.var_by_name g "yl" in
  (* Scanning all six state vars must break everything. *)
  check_int "all loops broken" 0
    (List.length (Loops.unbroken loops [ x; xl; u; ul; y; yl ]));
  (* Scanning only x leaves u and y loops. *)
  check "x alone insufficient" true
    (List.length (Loops.unbroken loops [ x; xl ]) > 0)

let test_fig1_no_cdfg_loops () =
  let g = Paper_fig1.graph () in
  check_int "figure 1 CDFG is loop-free" 0 (List.length (Loops.enumerate g))

let test_fir_loops () =
  let g = Bench_suite.fir8 () in
  let loops = Loops.enumerate g in
  (* The delay line is a chain ending back at z0 <- x: moves z_{i-1} ->
     z_i do not cycle; but wait, z taps shift forward so there IS no
     cycle through the tap chain — each tap's value comes from the
     previous tap, and x is a fresh input.  The graph has no loop. *)
  check_int "fir delay line is acyclic" 0 (List.length loops)

let test_lattice_loops () =
  let g = Bench_suite.ar_lattice () in
  check "lattice has loops" true (List.length (Loops.enumerate g) > 0)

(* ------------------------------------------------------------------ *)
(* Transform                                                          *)
(* ------------------------------------------------------------------ *)

let test_deflection_preserves_behaviour () =
  let g = Bench_suite.diffeq () in
  let s1 = Graph.var_by_name g "s1" in
  let consumer =
    match Graph.consumers g s1 with o :: _ -> o.Graph.o_id | [] -> assert false
  in
  let g' = Transform.insert_deflection g ~var:s1 ~consumer in
  check_int "one extra op" (Graph.n_ops g + 1) (Graph.n_ops g');
  let rng = Hft_util.Rng.create 11 in
  check "equivalent" true (Transform.equivalent ~width:16 ~trials:50 rng g g')

let test_deflection_bad_consumer () =
  let g = tiny () in
  let x = Graph.var_by_name g "x" in
  check "wrong consumer rejected" true
    (match Transform.insert_deflection g ~var:x ~consumer:1 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_test_points () =
  let g = tiny () in
  let s = Graph.var_by_name g "s" in
  let g' = Transform.add_test_points g ~controls:[ s ] ~observes:[ s ] in
  check "control recorded" true (List.mem s g'.Graph.test_controls);
  check "observe recorded" true (List.mem s g'.Graph.test_observes)

let prop_deflection_equivalence =
  QCheck.Test.make ~name:"random deflections preserve behaviour" ~count:30
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g =
        Bench_suite.random rng ~n_inputs:4 ~n_ops:12 ~p_feedback:0.2
      in
      (* Pick a random (var, consumer) pair. *)
      let edges =
        List.concat_map
          (fun o ->
            Array.to_list o.Graph.o_args
            |> List.filter_map (fun a ->
                   match (Graph.var g a).Graph.v_kind with
                   | Graph.V_const _ -> None
                   | _ -> Some (a, o.Graph.o_id)))
          (List.init (Graph.n_ops g) (Graph.op g))
      in
      match edges with
      | [] -> true
      | _ ->
        let v, c = List.nth edges (Hft_util.Rng.int rng (List.length edges)) in
        let g' = Transform.insert_deflection g ~var:v ~consumer:c in
        Transform.equivalent ~width:16 ~trials:20 rng g g')

(* ------------------------------------------------------------------ *)
(* Testability                                                        *)
(* ------------------------------------------------------------------ *)

let test_testability_tiny () =
  let g = tiny () in
  let cls = Testability.analyze g in
  let x = Graph.var_by_name g "x" in
  let s = Graph.var_by_name g "s" in
  let p = Graph.var_by_name g "p" in
  check "input fully controllable" true (cls.Testability.controllability.(x) = Testability.Full);
  check "s fully controllable (add)" true (cls.Testability.controllability.(s) = Testability.Full);
  (* p = s * y: controllable via s with y settable to 1. *)
  check "p fully controllable" true (cls.Testability.controllability.(p) = Testability.Full);
  check "output fully observable" true (cls.Testability.observability.(p) = Testability.Full);
  (* s observable through the multiply by making y = 1. *)
  check "s observable" true (cls.Testability.observability.(s) = Testability.Full)

let test_testability_opaque_sink () =
  (* v feeds only a comparator: observability of v is partial. *)
  let b = Builder.create "cmp_sink" in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let s = Builder.binop b Op.Add x y ~name:"s" in
  let c = Builder.binop b Op.Lt s y ~name:"c" in
  Builder.mark_output b c;
  let g = Builder.finish b in
  let cls = Testability.analyze g in
  let s = Graph.var_by_name g "s" in
  check "comparator sink partial observability" true
    (cls.Testability.observability.(s) = Testability.Partial)

let test_testability_repair () =
  let b = Builder.create "hard" in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let s = Builder.binop b Op.Add x y ~name:"s" in
  let c = Builder.binop b Op.Lt s y ~name:"c" in
  Builder.mark_output b c;
  let g = Builder.finish b in
  let cls = Testability.analyze g in
  let controls, observes = Testability.repair_points g cls in
  let g' = Transform.add_test_points g ~controls ~observes in
  let cls' = Testability.analyze g' in
  check_int "no hard variables after repair" 0
    (List.length (Testability.hard_variables g' cls'))

(* ------------------------------------------------------------------ *)
(* Paper figure 1                                                     *)
(* ------------------------------------------------------------------ *)

let test_fig1_schedules_valid () =
  let g = Paper_fig1.graph () in
  check "schedule (b) valid" true (Schedule.is_valid g (Paper_fig1.schedule_b g));
  check "schedule (c) valid" true (Schedule.is_valid g (Paper_fig1.schedule_c g))

let test_fig1_resource_constraint () =
  let g = Paper_fig1.graph () in
  List.iter
    (fun sched ->
      let d = Schedule.fu_demand g sched in
      check "two adders suffice" true (List.assoc Op.Alu d <= 2))
    [ Paper_fig1.schedule_b g; Paper_fig1.schedule_c g ]

let test_fig1_semantics () =
  let g = Paper_fig1.graph () in
  let r =
    Graph.run ~width:16 g
      ~inputs:[ ("a", 1); ("b", 2); ("d", 3); ("f", 4); ("p", 5); ("q", 6); ("g", 7) ]
      ()
  in
  check_int "t = a+b+d+f" 10 (Graph.value_of g r "t");
  check_int "s = p+q+g" 18 (Graph.value_of g r "s")

(* ------------------------------------------------------------------ *)
(* Bench suite sanity                                                 *)
(* ------------------------------------------------------------------ *)

let test_suite_profiles () =
  let profile name =
    Graph.op_profile (Bench_suite.by_name name)
  in
  check_int "ewf muls" 8 (List.assoc Op.Multiplier (profile "ewf"));
  check_int "ewf adds" 20 (List.assoc Op.Alu (profile "ewf"));
  check_int "fir muls" 8 (List.assoc Op.Multiplier (profile "fir8"));
  check_int "iir muls" 10 (List.assoc Op.Multiplier (profile "iir4"));
  check_int "lattice muls" 8 (List.assoc Op.Multiplier (profile "ar_lattice"))

let test_suite_states () =
  let states name = List.length (Graph.state_vars (Bench_suite.by_name name)) in
  check_int "ewf states" 5 (states "ewf");
  check_int "fir states" 7 (states "fir8");
  check_int "iir states" 4 (states "iir4");
  check_int "lattice states" 4 (states "ar_lattice");
  check_int "tseng stateless" 0 (states "tseng")

let test_fir_semantics () =
  let g = Bench_suite.fir8 () in
  (* All taps zero: y = c0 * x. *)
  let r =
    Graph.run ~width:16 g
      ~inputs:
        (("x", 3)
         :: List.init 8 (fun i -> (Printf.sprintf "c%d" i), if i = 0 then 5 else 1))
      ()
  in
  check_int "y = 15 with empty delay line" 15 (Graph.value_of g r "a7")

let test_dct4_semantics () =
  let g = Bench_suite.dct4 () in
  (* With c0=c1=c2=c3=1: y0 = (x0+x3)+(x1+x2), y1 = (x0-x3)+(x1-x2). *)
  let ins =
    [ ("x0", 5); ("x1", 3); ("x2", 2); ("x3", 1);
      ("c0", 1); ("c1", 1); ("c2", 1); ("c3", 1) ]
  in
  let r = Graph.run ~width:16 g ~inputs:ins () in
  check_int "y0" 11 (Graph.value_of g r "y0");
  check_int "y1" 5 (Graph.value_of g r "y1");
  check_int "y2 = (x0+x3)-(x1+x2)" 1 (Graph.value_of g r "y2")

let test_lms4_semantics () =
  let g = Bench_suite.lms4 () in
  (* Zero taps and coefficients except c0=2: y = 2x; e = d - y;
     coefficient update cn0 = c0 + mu*e*x. *)
  let r =
    Graph.run ~width:16 g
      ~inputs:[ ("x", 3); ("d", 10); ("mu", 1) ]
      ~state:[ ("c0", 2) ] ()
  in
  check_int "y = 6" 6 (Graph.value_of g r "y");
  check_int "e = 4" 4 (Graph.value_of g r "e");
  check_int "cn0 = 2 + 4*3" 14 (Graph.value_of g r "cn0")

let test_lms4_loops_rich () =
  let g = Bench_suite.lms4 () in
  let loops = Loops.enumerate g in
  (* Four coefficient loops at least. *)
  check "at least 4 loops" true (List.length loops >= 4)

let prop_random_graphs_wellformed =
  QCheck.Test.make ~name:"random CDFGs validate and run" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:3 ~n_ops:15 ~p_feedback:0.15 in
      let ins =
        List.map (fun v -> (v.Graph.v_name, Hft_util.Rng.int rng 100))
          (Graph.inputs g)
      in
      let r = Graph.run ~width:16 g ~inputs:ins () in
      List.length r = Graph.n_vars g)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hft_cdfg"
    [
      ( "op",
        [
          Alcotest.test_case "eval" `Quick test_op_eval;
          Alcotest.test_case "identity elements" `Quick test_op_identity;
          Alcotest.test_case "transparency" `Quick test_op_transparency;
        ] );
      ( "graph",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basic;
          Alcotest.test_case "run semantics" `Quick test_run_semantics;
          Alcotest.test_case "diffeq evaluates" `Quick test_diffeq_runs;
          Alcotest.test_case "op graphs acyclic" `Quick test_op_graph_acyclic;
          Alcotest.test_case "feedback cycles" `Quick test_feedback_creates_cycles;
          Alcotest.test_case "single assignment" `Quick test_single_assignment_enforced;
          Alcotest.test_case "op profile" `Quick test_op_profile;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "valid" `Quick test_schedule_valid;
          Alcotest.test_case "dependency violation" `Quick test_schedule_dependency_violation;
          Alcotest.test_case "multicycle" `Quick test_schedule_multicycle;
          Alcotest.test_case "fu demand" `Quick test_fu_demand;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "tiny lifetimes" `Quick test_lifetimes_tiny;
          Alcotest.test_case "feedback merge" `Quick test_lifetime_feedback_merge;
          Alcotest.test_case "register candidates" `Quick test_register_candidates;
          Alcotest.test_case "class table = brute force" `Quick
            test_class_table_matches_brute_force;
        ] );
      ( "loops",
        [
          Alcotest.test_case "diffeq loops" `Quick test_diffeq_loops;
          Alcotest.test_case "loop breaking" `Quick test_loop_breaking;
          Alcotest.test_case "fig1 loop-free" `Quick test_fig1_no_cdfg_loops;
          Alcotest.test_case "fir acyclic" `Quick test_fir_loops;
          Alcotest.test_case "lattice loops" `Quick test_lattice_loops;
        ] );
      ( "transform",
        [
          Alcotest.test_case "deflection equivalence" `Quick test_deflection_preserves_behaviour;
          Alcotest.test_case "bad consumer" `Quick test_deflection_bad_consumer;
          Alcotest.test_case "test points" `Quick test_test_points;
          qt prop_deflection_equivalence;
        ] );
      ( "testability",
        [
          Alcotest.test_case "tiny classification" `Quick test_testability_tiny;
          Alcotest.test_case "opaque sink" `Quick test_testability_opaque_sink;
          Alcotest.test_case "repair" `Quick test_testability_repair;
        ] );
      ( "paper_fig1",
        [
          Alcotest.test_case "schedules valid" `Quick test_fig1_schedules_valid;
          Alcotest.test_case "resource constraint" `Quick test_fig1_resource_constraint;
          Alcotest.test_case "semantics" `Quick test_fig1_semantics;
        ] );
      ( "bench_suite",
        [
          Alcotest.test_case "profiles" `Quick test_suite_profiles;
          Alcotest.test_case "states" `Quick test_suite_states;
          Alcotest.test_case "fir semantics" `Quick test_fir_semantics;
          Alcotest.test_case "dct4 semantics" `Quick test_dct4_semantics;
          Alcotest.test_case "lms4 semantics" `Quick test_lms4_semantics;
          Alcotest.test_case "lms4 loops" `Quick test_lms4_loops_rich;
          qt prop_random_graphs_wellformed;
        ] );
    ]
