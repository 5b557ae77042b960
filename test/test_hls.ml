open Hft_cdfg
open Hft_hls

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Sched_algos                                                        *)
(* ------------------------------------------------------------------ *)

let test_asap_chain () =
  let g = Bench_suite.chain 5 in
  let s = Sched_algos.asap g in
  check_int "critical path 5" 5 s.Schedule.n_steps;
  check "valid" true (Schedule.is_valid g s)

let test_alap_slack () =
  let g = Bench_suite.tree 3 in
  (* 8 leaves -> 3 levels of adds: critical path 3. *)
  let asap = Sched_algos.asap g in
  check_int "tree depth" 3 asap.Schedule.n_steps;
  let alap = Sched_algos.alap g ~n_steps:5 in
  check "alap valid" true (Schedule.is_valid g alap);
  let mob = Sched_algos.mobility ~asap ~alap:(Sched_algos.alap g ~n_steps:3) in
  (* In a complete binary tree with uniform latency every op is critical. *)
  check "all critical" true (Array.for_all (fun m -> m = 0) mob)

let test_alap_below_cp_rejected () =
  let g = Bench_suite.chain 5 in
  check "below critical path rejected" true
    (match Sched_algos.alap g ~n_steps:4 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_mul_latency () =
  let g = Bench_suite.diffeq () in
  let lat = Sched_algos.latencies ~mul_latency:2 g in
  let s = Sched_algos.asap ~latency:lat g in
  check "valid with 2-cycle mult" true (Schedule.is_valid g s);
  (* Critical path: m1/m2 (2) -> m3 (2) -> s1 (1) -> ul (1) = 6. *)
  check_int "critical path grows" 6 s.Schedule.n_steps

let prop_alap_mobility_nonnegative =
  QCheck.Test.make ~name:"ALAP never precedes ASAP (mobility >= 0)"
    ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:3 ~n_ops:15 ~p_feedback:0.1 in
      let asap = Sched_algos.asap g in
      let alap = Sched_algos.alap g ~n_steps:(asap.Schedule.n_steps + 2) in
      Schedule.is_valid g alap
      && Array.for_all (fun m -> m >= 0)
           (Sched_algos.mobility ~asap
              ~alap:(Sched_algos.alap g ~n_steps:asap.Schedule.n_steps)))

let prop_more_resources_never_longer =
  QCheck.Test.make ~name:"adding units never lengthens the schedule"
    ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:3 ~n_ops:14 ~p_feedback:0.1 in
      let len k =
        (List_sched.schedule g ~resources:[ (Op.Multiplier, k); (Op.Alu, k) ])
          .Schedule.n_steps
      in
      len 2 >= len 3)

(* ------------------------------------------------------------------ *)
(* List_sched                                                         *)
(* ------------------------------------------------------------------ *)

let test_list_sched_respects_resources () =
  let g = Bench_suite.diffeq () in
  let resources = [ (Op.Multiplier, 2); (Op.Alu, 1); (Op.Comparator, 1) ] in
  let s = List_sched.schedule g ~resources in
  check "valid" true (Schedule.is_valid g s);
  List.iter
    (fun (cl, n) ->
      check "within cap" true (n <= List.assoc cl resources))
    (Schedule.fu_demand g s)

let test_list_sched_tight_resources_stretch () =
  let g = Bench_suite.diffeq () in
  let loose =
    List_sched.schedule g
      ~resources:[ (Op.Multiplier, 6); (Op.Alu, 4); (Op.Comparator, 1) ]
  in
  let tight =
    List_sched.schedule g
      ~resources:[ (Op.Multiplier, 1); (Op.Alu, 1); (Op.Comparator, 1) ]
  in
  check "tight schedule is longer" true
    (tight.Schedule.n_steps > loose.Schedule.n_steps);
  check_int "loose matches critical path" (Sched_algos.critical_path g)
    loose.Schedule.n_steps

let test_list_sched_missing_class () =
  let g = Bench_suite.diffeq () in
  check "missing class rejected" true
    (match List_sched.schedule g ~resources:[ (Op.Alu, 2) ] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let prop_list_sched_valid =
  QCheck.Test.make ~name:"list scheduling always yields valid schedules"
    ~count:100
    QCheck.(pair (int_bound 10000) (int_range 1 3))
    (fun (seed, cap) ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:4 ~n_ops:14 ~p_feedback:0.2 in
      let resources = [ (Op.Multiplier, cap); (Op.Alu, cap) ] in
      let s = List_sched.schedule g ~resources in
      Schedule.is_valid g s
      && List.for_all
           (fun (cl, n) -> n <= List.assoc cl resources)
           (Schedule.fu_demand g s))

(* ------------------------------------------------------------------ *)
(* Fu_bind                                                            *)
(* ------------------------------------------------------------------ *)

let test_bind_left_edge () =
  let g = Bench_suite.diffeq () in
  let resources = [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1) ] in
  let s = List_sched.schedule g ~resources in
  let b = Fu_bind.left_edge ~resources g s in
  Fu_bind.validate g s b;
  check "instance count within caps" true
    (Array.length b.Fu_bind.instances <= 5)

let test_bind_fig1 () =
  let g = Paper_fig1.graph () in
  let sb = Paper_fig1.schedule_b g in
  let bb = Fu_bind.of_class_indices g sb Paper_fig1.binding_b in
  Fu_bind.validate g sb bb;
  check_int "two adders" 2 (Array.length bb.Fu_bind.instances);
  let sc = Paper_fig1.schedule_c g in
  let bc = Fu_bind.of_class_indices g sc Paper_fig1.binding_c in
  Fu_bind.validate g sc bc;
  check_int "two adders (c)" 2 (Array.length bc.Fu_bind.instances)

let test_bind_overlap_rejected () =
  let g = Paper_fig1.graph () in
  let sb = Paper_fig1.schedule_b g in
  (* +2 and +3 both run in step 2: same instance must be rejected. *)
  check "overlap rejected" true
    (match Fu_bind.of_class_indices g sb [| 0; 0; 0; 1; 0 |] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let prop_bind_validates =
  QCheck.Test.make ~name:"left-edge binding always validates" ~count:100
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:4 ~n_ops:12 ~p_feedback:0.1 in
      let s =
        List_sched.schedule g ~resources:[ (Op.Multiplier, 2); (Op.Alu, 2) ]
      in
      let b = Fu_bind.left_edge g s in
      match Fu_bind.validate g s b with () -> true)

(* ------------------------------------------------------------------ *)
(* Reg_alloc                                                          *)
(* ------------------------------------------------------------------ *)

let alloc_setup g resources =
  let s = List_sched.schedule g ~resources in
  let info = Lifetime.compute g s in
  (s, info)

let test_reg_alloc_left_edge () =
  let g = Bench_suite.diffeq () in
  let _, info =
    alloc_setup g [ (Op.Multiplier, 2); (Op.Alu, 1); (Op.Comparator, 1) ]
  in
  let a = Reg_alloc.left_edge g info in
  Reg_alloc.validate g info a;
  check "some registers" true (a.Reg_alloc.n_regs > 0)

let test_reg_alloc_color_matches_left_edge_size () =
  let g = Bench_suite.ewf () in
  let _, info =
    alloc_setup g [ (Op.Multiplier, 2); (Op.Alu, 3) ]
  in
  let le = Reg_alloc.left_edge g info in
  let co = Reg_alloc.color g info in
  Reg_alloc.validate g info le;
  Reg_alloc.validate g info co;
  (* Greedy colouring in interval order equals left-edge for interval
     conflicts extended with final-write exclusions: allow slack 1. *)
  check "colour close to left-edge" true
    (abs (co.Reg_alloc.n_regs - le.Reg_alloc.n_regs) <= 1)

let test_reg_alloc_extra_conflicts () =
  let g = Bench_suite.diffeq () in
  let _, info =
    alloc_setup g [ (Op.Multiplier, 2); (Op.Alu, 1); (Op.Comparator, 1) ]
  in
  let base = Reg_alloc.color g info in
  (* Forbid sharing between two variables that the base allocation put
     together, then check the constraint holds. *)
  let find_shared () =
    let n = Array.length base.Reg_alloc.reg_of_var in
    let found = ref None in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if !found = None && base.Reg_alloc.reg_of_var.(u) >= 0
           && base.Reg_alloc.reg_of_var.(u) = base.Reg_alloc.reg_of_var.(v)
           && not (Hft_util.Union_find.same info.Lifetime.merged u v)
        then found := Some (u, v)
      done
    done;
    !found
  in
  match find_shared () with
  | None -> () (* nothing shares: constraint trivially holds *)
  | Some (u, v) ->
    let a = Reg_alloc.color ~extra_conflicts:[ (u, v) ] g info in
    Reg_alloc.validate ~extra_conflicts:[ (u, v) ] g info a;
    check "extra conflict separates" true
      (a.Reg_alloc.reg_of_var.(u) <> a.Reg_alloc.reg_of_var.(v))

let prop_reg_alloc_valid =
  QCheck.Test.make ~name:"allocations always validate" ~count:100
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:4 ~n_ops:14 ~p_feedback:0.25 in
      let s =
        List_sched.schedule g ~resources:[ (Op.Multiplier, 2); (Op.Alu, 2) ]
      in
      let info = Lifetime.compute g s in
      let le = Reg_alloc.left_edge g info in
      let co = Reg_alloc.color g info in
      Reg_alloc.validate g info le;
      Reg_alloc.validate g info co;
      true)

(* ------------------------------------------------------------------ *)
(* Datapath_gen: the keystone equivalence                             *)
(* ------------------------------------------------------------------ *)

let default_resources =
  [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1); (Op.Logic_unit, 1) ]

let test_datapath_matches_behaviour () =
  let rng = Hft_util.Rng.create 2024 in
  List.iter
    (fun (name, g) ->
      let d =
        Datapath_gen.conventional ~width:16 ~resources:default_resources g
      in
      check (name ^ " datapath equivalent to behaviour") true
        (Datapath_gen.check_against_behaviour ~width:16 ~trials:25 rng g d))
    (Bench_suite.all ())

let test_datapath_fig1 () =
  let g = Paper_fig1.graph () in
  let s = Paper_fig1.schedule_b g in
  let b = Fu_bind.of_class_indices g s Paper_fig1.binding_b in
  let info = Lifetime.compute g s in
  let a = Reg_alloc.left_edge g info in
  let d = Datapath_gen.generate ~width:8 g s b a in
  let rng = Hft_util.Rng.create 7 in
  check "fig1(b) datapath equivalent" true
    (Datapath_gen.check_against_behaviour ~width:8 ~trials:25 rng g d)

let test_datapath_multicycle_mult () =
  let g = Bench_suite.diffeq () in
  let d =
    Datapath_gen.conventional ~width:16 ~mul_latency:2
      ~resources:default_resources g
  in
  let rng = Hft_util.Rng.create 5 in
  check "2-cycle multiplier datapath equivalent" true
    (Datapath_gen.check_against_behaviour ~width:16 ~trials:25 rng g d)

let prop_datapath_equivalence =
  QCheck.Test.make ~name:"random CDFG datapaths match behaviour" ~count:40
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let g = Bench_suite.random rng ~n_inputs:4 ~n_ops:10 ~p_feedback:0.2 in
      let d =
        Datapath_gen.conventional ~width:12
          ~resources:[ (Op.Multiplier, 2); (Op.Alu, 2) ]
          g
      in
      Datapath_gen.check_against_behaviour ~width:12 ~trials:10 rng g d)

(* ------------------------------------------------------------------ *)
(* Mobility_path                                                      *)
(* ------------------------------------------------------------------ *)

let test_mobility_path_valid () =
  let g = Bench_suite.diffeq () in
  let resources = [ (Op.Multiplier, 2); (Op.Alu, 1); (Op.Comparator, 1) ] in
  let s = Mobility_path.schedule g ~resources in
  check "valid" true (Schedule.is_valid g s);
  List.iter
    (fun (cl, n) -> check "caps" true (n <= List.assoc cl resources))
    (Schedule.fu_demand g s)

let test_mobility_path_no_worse () =
  let g = Bench_suite.ewf () in
  let resources = [ (Op.Multiplier, 2); (Op.Alu, 3) ] in
  let base = List_sched.schedule g ~resources in
  let mp = Mobility_path.schedule g ~resources in
  check "sharable count not reduced" true
    (Mobility_path.io_sharable_count g mp
     >= Mobility_path.io_sharable_count g base)

(* ------------------------------------------------------------------ *)
(* Reference copies                                                   *)
(* ------------------------------------------------------------------ *)

(* [List_sched.schedule] and [Reg_alloc.left_edge] as they were when the
   scheduler re-tested every op for readiness at every step and the
   spill repair compared every pair of candidates, kept verbatim as
   oracles. *)
module Reference = struct
  let schedule ?latency ?priority ?max_steps g ~resources =
    let n = Graph.n_ops g in
    let latency =
      match latency with Some l -> l | None -> Array.make n 1
    in
    let max_steps =
      match max_steps with
      | Some m -> m
      | None -> (Array.fold_left ( + ) 0 latency + 4) * 2
    in
    let priority =
      match priority with
      | Some p -> p
      | None ->
        (* Least mobility first: priority = -(alap - asap). *)
        let asap = Sched_algos.asap ~latency g in
        let horizon = asap.Schedule.n_steps in
        let alap = Sched_algos.alap ~latency g ~n_steps:horizon in
        Array.map (fun m -> -m) (Sched_algos.mobility ~asap ~alap)
    in
    (* Check the resource table covers every class used. *)
    Array.iter
      (fun o ->
        match Op.fu_class (Graph.op g o).Graph.o_kind with
        | None -> ()
        | Some cl ->
          (match List.assoc_opt cl resources with
           | Some k when k >= 1 -> ()
           | Some _ | None ->
             invalid_arg
               (Printf.sprintf "List_sched: no %s units allocated"
                  (Op.fu_class_to_string cl))))
      (Array.init n (fun i -> i));
    let dg = Graph.op_graph g in
    let start = Array.make n 0 in
    let unscheduled = ref n in
    let step = ref 0 in
    let candidate_evals = ref 0 in
    (* busy.(class slot accounting): list of (class, finish_step) *)
    let busy = ref [] in
    while !unscheduled > 0 && !step <= max_steps do
      incr step;
      let c = !step in
      busy := List.filter (fun (_, fin) -> fin >= c) !busy;
      let free cl =
        let total = match List.assoc_opt cl resources with Some k -> k | None -> 0 in
        let used = List.length (List.filter (fun (cl', _) -> cl' = cl) !busy) in
        total - used
      in
      let ready o =
        start.(o) = 0
        && List.for_all
             (fun p -> start.(p) > 0 && start.(p) + latency.(p) - 1 < c)
             (Hft_util.Digraph.pred dg o)
      in
      let candidates =
        List.init n (fun i -> i)
        |> List.filter ready
        |> List.sort (fun a b -> compare (-priority.(a), a) (-priority.(b), b))
      in
      candidate_evals := !candidate_evals + List.length candidates;
      List.iter
        (fun o ->
          match Op.fu_class (Graph.op g o).Graph.o_kind with
          | None ->
            (* moves: free *)
            start.(o) <- c;
            decr unscheduled
          | Some cl ->
            if free cl > 0 then begin
              start.(o) <- c;
              busy := (cl, c + latency.(o) - 1) :: !busy;
              decr unscheduled
            end)
        candidates
    done;
    if !unscheduled > 0 then invalid_arg "List_sched: step budget exhausted";
    if !Hft_obs.Config.enabled then begin
      Hft_obs.Registry.incr "hft.sched.runs";
      Hft_obs.Registry.incr "hft.sched.steps" ~by:!step;
      Hft_obs.Registry.incr "hft.sched.candidate_evals" ~by:!candidate_evals
    end;
    let n_steps =
      Array.fold_left max 1 (Array.mapi (fun o s -> s + latency.(o) - 1) start)
    in
    Schedule.make g ~n_steps ~latency start

  let spread_to_members info candidates track_of =
    let nv = Array.length info.Lifetime.intervals in
    let reg_of_var = Array.make nv (-1) in
    List.iter
      (fun rep ->
        let track = track_of rep in
        List.iter
          (fun v -> reg_of_var.(v) <- track)
          (Lifetime.class_members info rep))
      candidates;
    reg_of_var

  let left_edge g info =
    let candidates = Lifetime.register_candidates g info in
    let items =
      List.map (fun rep -> (rep, Lifetime.class_interval info rep)) candidates
    in
    let assign, n = Hft_util.Interval.left_edge items in
    (* Left-edge ignores the final-boundary write exclusions; patch any
       violations by spilling one side to a fresh register. *)
    let track_tbl = Hashtbl.create 16 in
    List.iter (fun (rep, t) -> Hashtbl.replace track_tbl rep t) assign;
    let n_regs = ref n in
    let rec fix reps =
      match reps with
      | [] -> ()
      | rep :: tl ->
        List.iter
          (fun rep' ->
            if Hashtbl.find track_tbl rep = Hashtbl.find track_tbl rep'
               && Lifetime.conflict info rep rep'
            then begin
              Hashtbl.replace track_tbl rep' !n_regs;
              incr n_regs
            end)
          tl;
        fix tl
    in
    fix candidates;
    if !Hft_obs.Config.enabled then begin
      Hft_obs.Registry.incr "hft.reg_alloc.runs";
      Hft_obs.Registry.incr "hft.reg_alloc.candidates"
        ~by:(List.length candidates);
      Hft_obs.Registry.incr "hft.reg_alloc.spills" ~by:(!n_regs - n);
      Hft_obs.Registry.incr "hft.reg_alloc.regs" ~by:!n_regs
    end;
    let reg_of_var =
      spread_to_members info candidates (Hashtbl.find track_tbl)
    in
    { Reg_alloc.reg_of_var; n_regs = !n_regs }
end

(* [f ()] with observability on, against a fresh registry, and the
   value of counter [name] it leaves. *)
let counted name f =
  Hft_obs.isolated @@ fun () ->
  Hft_obs.with_enabled true @@ fun () ->
  let r = f () in
  (r, Hft_obs.Registry.count name)

(* 100 random CDFGs of 8 to 120 ops, each scheduled at multiplier
   latencies 1 to 3, with 1 or 2 units of each class, under the default
   priority and under a caller-supplied one with many ties (as
   [Mobility_path] passes one); then the left-edge allocation of each
   schedule.  Feedback up to 0.9 makes final-boundary writes, and so
   spills on several tracks of one allocation, common. *)
let test_matches_reference () =
  let rng = Hft_util.Rng.create 26 in
  let spills = ref 0 and waits = ref 0 in
  for i = 0 to 99 do
    let n = 8 + (i * 112 / 99) in
    let g =
      Bench_suite.random rng ~n_inputs:(max 1 (n / 8)) ~n_ops:n
        ~p_feedback:[| 0.0; 0.1; 0.3; 0.6; 0.9 |].(i mod 5)
    in
    let tied = Array.init (Graph.n_ops g) (fun _ -> Hft_util.Rng.int rng 4) in
    for mul_latency = 1 to 3 do
      let latency = Sched_algos.latencies ~mul_latency g in
      List.iter
        (fun k ->
          let resources = [ (Op.Multiplier, k); (Op.Alu, k) ] in
          List.iter
            (fun priority ->
              let label =
                Printf.sprintf "draw %d, mul latency %d, %d units, %s" i
                  mul_latency k
                  (if priority = None then "default priority" else "tied priority")
              in
              let run f =
                counted "hft.sched.candidate_evals" (fun () ->
                    f ?latency:(Some latency) ?priority ?max_steps:None g
                      ~resources)
              in
              let want, want_evals = run Reference.schedule in
              let got, got_evals = run List_sched.schedule in
              check (label ^ ": starts") true
                (got.Schedule.start = want.Schedule.start);
              check_int (label ^ ": steps") want.Schedule.n_steps
                got.Schedule.n_steps;
              check_int (label ^ ": candidate evals") want_evals got_evals;
              if want_evals > Graph.n_ops g then incr waits;
              let info = Lifetime.compute g want in
              let want, want_spills =
                counted "hft.reg_alloc.spills" (fun () ->
                    Reference.left_edge g info)
              in
              let got, got_spills =
                counted "hft.reg_alloc.spills" (fun () ->
                    Reg_alloc.left_edge g info)
              in
              check (label ^ ": register map") true
                (got.Reg_alloc.reg_of_var = want.Reg_alloc.reg_of_var);
              check_int (label ^ ": registers") want.Reg_alloc.n_regs
                got.Reg_alloc.n_regs;
              check_int (label ^ ": spills") want_spills got_spills;
              spills := !spills + want_spills)
            [ None; Some tied ])
        [ 1; 2 ]
    done
  done;
  check "some ops waited for a unit" true (!waits > 0);
  check "some candidates spilled" true (!spills > 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hft_hls"
    [
      ( "sched_algos",
        [
          Alcotest.test_case "asap chain" `Quick test_asap_chain;
          Alcotest.test_case "alap slack" `Quick test_alap_slack;
          Alcotest.test_case "alap below cp" `Quick test_alap_below_cp_rejected;
          Alcotest.test_case "mult latency" `Quick test_mul_latency;
          qt prop_alap_mobility_nonnegative;
          qt prop_more_resources_never_longer;
        ] );
      ( "list_sched",
        [
          Alcotest.test_case "respects resources" `Quick
            test_list_sched_respects_resources;
          Alcotest.test_case "tight stretches" `Quick
            test_list_sched_tight_resources_stretch;
          Alcotest.test_case "missing class" `Quick test_list_sched_missing_class;
          qt prop_list_sched_valid;
        ] );
      ( "fu_bind",
        [
          Alcotest.test_case "left edge" `Quick test_bind_left_edge;
          Alcotest.test_case "fig1 bindings" `Quick test_bind_fig1;
          Alcotest.test_case "overlap rejected" `Quick test_bind_overlap_rejected;
          qt prop_bind_validates;
        ] );
      ( "reg_alloc",
        [
          Alcotest.test_case "left edge" `Quick test_reg_alloc_left_edge;
          Alcotest.test_case "colour vs left edge" `Quick
            test_reg_alloc_color_matches_left_edge_size;
          Alcotest.test_case "extra conflicts" `Quick
            test_reg_alloc_extra_conflicts;
          qt prop_reg_alloc_valid;
        ] );
      ( "datapath_gen",
        [
          Alcotest.test_case "benchmarks equivalent" `Quick
            test_datapath_matches_behaviour;
          Alcotest.test_case "fig1 binding" `Quick test_datapath_fig1;
          Alcotest.test_case "multicycle mult" `Quick
            test_datapath_multicycle_mult;
          qt prop_datapath_equivalence;
        ] );
      ( "reference",
        [
          Alcotest.test_case "scheduler and spill repair" `Quick
            test_matches_reference;
        ] );
      ( "mobility_path",
        [
          Alcotest.test_case "valid" `Quick test_mobility_path_valid;
          Alcotest.test_case "no worse sharing" `Quick
            test_mobility_path_no_worse;
        ] );
    ]
