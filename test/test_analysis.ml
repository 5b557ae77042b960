(* Hft_analysis: post-dominators, static implications and the guided-
   PODEM contract, checked against hand-built circuits and exhaustive
   enumeration (the circuits are small enough to enumerate every
   source assignment, so every soundness claim has a ground truth). *)

open Hft_gate
open Hft_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Shared harness                                                     *)
(* ------------------------------------------------------------------ *)

let sources nl = Netlist.pis nl @ Netlist.dffs nl

(* Every total 0/1 assignment of the sources, with all internal nodes
   evaluated (three-valued sim on concrete inputs is concrete). *)
let enum_states nl f =
  let srcs = sources nl in
  let k = List.length srcs in
  assert (k <= 12);
  let st = Sim.tcreate nl in
  for code = 0 to (1 lsl k) - 1 do
    List.iteri (fun i s -> st.(s) <- (code lsr i) land 1) srcs;
    Sim.teval nl st;
    f st
  done

(* The full-scan view used throughout: every DFF freely assignable,
   its D input observed next to the POs. *)
let scan_view nl =
  let dffs = Netlist.dffs nl in
  ( Netlist.pis nl @ dffs,
    Netlist.pos nl @ List.map (fun d -> (Netlist.fanin nl d).(0)) dffs )

(* Reference reachability on the propagation graph (comb fanout edges,
   Dff consumers excluded, observe nodes adjacent to the sink),
   optionally with one node removed — the ground truth a post-dominator
   must match: removing a proper post-dominator of [v] must disconnect
   [v] from every observe node. *)
let bfs_reaches nl ~observe ?(avoid = -1) v =
  if v = avoid then false
  else begin
    let n = Netlist.n_nodes nl in
    let obs = Array.make n false in
    List.iter (fun o -> obs.(o) <- true) observe;
    let seen = Array.make n false in
    let q = Queue.create () in
    Queue.add v q;
    seen.(v) <- true;
    let found = ref false in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      if obs.(u) then found := true
      else
        List.iter
          (fun w ->
            if
              w <> avoid && (not seen.(w)) && Netlist.kind nl w <> Netlist.Dff
            then begin
              seen.(w) <- true;
              Queue.add w q
            end)
          (Netlist.fanout nl u)
    done;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Dominators: hand-checked shapes                                    *)
(* ------------------------------------------------------------------ *)

let test_dom_fanout_free () =
  (* a -> g1 -> g2 -> y: every downstream node post-dominates. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.Buf [| a |] in
  let g2 = Netlist.add nl Netlist.Not [| g1 |] in
  let y = Netlist.add nl Netlist.Po [| g2 |] in
  let t = Dominators.compute nl ~observe:[ y ] in
  check "a reaches" true (Dominators.reaches t a);
  Alcotest.(check (list int)) "chain of a" [ g1; g2; y ] (Dominators.chain t a)

let test_dom_reconvergent () =
  (* Diamond: a forks to g1/g2, reconverges at g3; only g3 and y
     post-dominate the stem. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.And [| a; b |] in
  let g2 = Netlist.add nl Netlist.Or [| a; b |] in
  let g3 = Netlist.add nl Netlist.Xor [| g1; g2 |] in
  let y = Netlist.add nl Netlist.Po [| g3 |] in
  let t = Dominators.compute nl ~observe:[ y ] in
  Alcotest.(check (list int)) "chain of a" [ g3; y ] (Dominators.chain t a);
  Alcotest.(check (list int)) "chain of g1" [ g3; y ] (Dominators.chain t g1)

let test_dom_unobservable () =
  (* A gate feeding only a DFF cannot reach the frame's observe set. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.And [| a; b |] in
  let _d = Netlist.add nl Netlist.Dff [| g |] in
  let y = Netlist.add nl Netlist.Po [| a |] in
  let t = Dominators.compute nl ~observe:[ y ] in
  check "g cannot reach" false (Dominators.reaches t g);
  Alcotest.(check (list int)) "empty chain" [] (Dominators.chain t g);
  check "a still reaches" true (Dominators.reaches t a)

(* Brute force on the two Figure 1 bindings: [reaches] must agree with
   BFS, and removing any claimed post-dominator must cut every path. *)
let fig1_netlist which =
  let _, d = Hft_core.Fig1_exp.datapath which in
  (Expand.of_datapath d).Expand.netlist

let test_dom_bruteforce which () =
  let nl = fig1_netlist which in
  let _, observe = scan_view nl in
  let t = Dominators.compute nl ~observe in
  for v = 0 to Netlist.n_nodes nl - 1 do
    let reference = bfs_reaches nl ~observe v in
    if reference <> Dominators.reaches t v then
      Alcotest.failf "node %d: reaches=%b, BFS says %b"
        v (Dominators.reaches t v) reference;
    List.iter
      (fun w ->
        if w <> v && bfs_reaches nl ~observe ~avoid:w v then
          Alcotest.failf "node %d: removing post-dominator %d leaves a path"
            v w)
      (Dominators.chain t v)
  done

(* ------------------------------------------------------------------ *)
(* Implications: soundness against exhaustive simulation              *)
(* ------------------------------------------------------------------ *)

let test_impl_direct () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.And [| a; b |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let imp = Implications.compute nl in
  let has l l' = List.mem l' (Implications.implied imp l) in
  check "a=0 forces g=0" true (has (a, 0) (g, 0));
  check "g=1 forces a=1 (contrapositive)" true (has (g, 1) (a, 1));
  check "g=1 forces b=1" true (has (g, 1) (b, 1))

(* Every stored edge, on every circuit: whenever the source literal
   holds under a total assignment, the target literal holds too. *)
let check_impl_sound nl =
  let imp = Implications.compute nl in
  let n = Netlist.n_nodes nl in
  enum_states nl (fun st ->
      for v = 0 to n - 1 do
        for value = 0 to 1 do
          if st.(v) = value then
            List.iter
              (fun (b, vb) ->
                if st.(b) <> vb then
                  Alcotest.failf
                    "unsound edge (%d,%d) -> (%d,%d): target is %d"
                    v value b vb st.(b))
              (Implications.implied imp (v, value))
        done
      done)

(* Closure: [Contradiction] on a single literal must mean no total
   assignment produces it; [Consistent] literals must all hold. *)
let check_closure_sound nl =
  let imp = Implications.compute nl in
  let n = Netlist.n_nodes nl in
  for v = 0 to n - 1 do
    for value = 0 to 1 do
      match Implications.closure imp [ (v, value) ] with
      | Implications.Contradiction ->
        enum_states nl (fun st ->
            if st.(v) = value then
              Alcotest.failf
                "closure claims (%d,%d) unsatisfiable, assignment found" v
                value)
      | Implications.Consistent lits ->
        enum_states nl (fun st ->
            if st.(v) = value then
              List.iter
                (fun (b, vb) ->
                  if st.(b) <> vb then
                    Alcotest.failf
                      "closure of (%d,%d): implied (%d,%d) violated" v value
                      b vb)
                lits)
    done
  done

let test_impl_sound_random () =
  List.iter
    (fun seed ->
      let nl = Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:12 in
      check_impl_sound nl;
      check_closure_sound nl)
    [ 11; 42; 1999 ]

let test_impl_constant_contradiction () =
  (* g = And(a, 0) can never be 1; the closure must prove it. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let c0 = Netlist.add nl Netlist.Const0 [||] in
  let g = Netlist.add nl Netlist.And [| a; c0 |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let imp = Implications.compute nl in
  check "g=1 contradictory" true
    (Implications.closure imp [ (g, 1) ] = Implications.Contradiction);
  check "g=0 consistent" true
    (match Implications.closure imp [ (g, 0) ] with
     | Implications.Consistent _ -> true
     | Implications.Contradiction -> false)

(* Reference learner: the direct gate edges, then a full pass over each
   X literal's fanout cone in levelized order, with the same caps (32
   learned edges per literal, 200,000 in total).  The event-driven
   learner must build the same graph, edge order included. *)
let reference_graph nl =
  let n = Netlist.n_nodes nl in
  let succs = Array.make (2 * n) [] and edges = ref 0 in
  let add l l' = succs.(l) <- l' :: succs.(l); incr edges in
  let pair (a, va) (b, vb) =
    add ((2 * a) + va) ((2 * b) + vb);
    add ((2 * b) + (1 - vb)) ((2 * a) + (1 - va))
  in
  for g = 0 to n - 1 do
    let fi = Netlist.fanin nl g in
    match Netlist.kind nl g with
    | Netlist.And -> Array.iter (fun a -> pair (a, 0) (g, 0)) fi
    | Netlist.Or -> Array.iter (fun a -> pair (a, 1) (g, 1)) fi
    | Netlist.Nand -> Array.iter (fun a -> pair (a, 0) (g, 1)) fi
    | Netlist.Nor -> Array.iter (fun a -> pair (a, 1) (g, 0)) fi
    | Netlist.Buf | Netlist.Po -> pair (fi.(0), 0) (g, 0); pair (fi.(0), 1) (g, 1)
    | Netlist.Not -> pair (fi.(0), 0) (g, 1); pair (fi.(0), 1) (g, 0)
    | _ -> ()
  done;
  let base = Sim.tcreate nl and eval = Sim.teval_fn nl in
  Sim.teval nl base;
  for src = 0 to n - 1 do
    for b = 0 to 1 do
      if base.(src) = 2 && !edges < 200_000 then begin
        let st = Array.copy base and learned = ref 0 in
        st.(src) <- b;
        Array.iter
          (fun w ->
            if w <> src then begin
              eval st w;
              if st.(w) <> 2 && base.(w) = 2 && !learned < 32
                 && !edges < 200_000
              then begin
                incr learned;
                add ((2 * src) + b) ((2 * w) + st.(w));
                add ((2 * w) + (1 - st.(w))) ((2 * src) + (1 - b))
              end
            end)
          (Netlist.fanout_cone nl src)
      end
    done
  done;
  (succs, !edges)

let check_learner_matches_reference name nl =
  let imp = Implications.compute nl in
  let succs, edges = reference_graph nl in
  check_int (name ^ " edges") edges (Implications.n_edges imp);
  Array.iteri
    (fun l expected ->
      if
        Implications.implied imp (l / 2, l land 1)
        <> List.map (fun l' -> (l' / 2, l' land 1)) expected
      then Alcotest.failf "%s: successors of literal (%d,%d) differ" name
          (l / 2) (l land 1))
    succs

let test_impl_matches_reference () =
  List.iter
    (fun mix ->
      List.iter
        (fun seed ->
          let cfg =
            { Netlist_gen.default with
              Netlist_gen.g_mix = mix; g_n_gates = 30; g_hub_bias = seed mod 3 }
          in
          let nl = Netlist_gen.generate ~seed cfg in
          let name = Printf.sprintf "%s/%d" (Netlist_gen.mix_name mix) seed in
          check_learner_matches_reference name nl;
          for frames = 1 to 3 do
            let u, _, _, _ = Seq_atpg.unroll nl ~frames ~scanned:[] in
            check_learner_matches_reference
              (Printf.sprintf "%s x%d" name frames) u
          done)
        [ 1; 2; 3; 4; 5; 6 ])
    Netlist_gen.[ Balanced; Xor_heavy; Mux_heavy; Chain_heavy ];
  (* A 1600-buffer chain: every literal implies its whole downstream
     chain, so the per-literal cap keeps 32 learned edges next to the
     direct one, and the chain is long enough to reach the total cap. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let last = ref a in
  for _ = 1 to 1600 do
    last := Netlist.add nl Netlist.Buf [| !last |]
  done;
  ignore (Netlist.add nl Netlist.Po [| !last |]);
  check_learner_matches_reference "buffer chain" nl;
  let imp = Implications.compute nl in
  check_int "capped successors of a=0" 33
    (List.length (Implications.implied imp (a, 0)));
  check "total cap reached" true (Implications.n_edges imp >= 200_000)

(* ------------------------------------------------------------------ *)
(* Guidance: static untestability and the guided/unguided contract    *)
(* ------------------------------------------------------------------ *)

let test_static_untestable () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let c0 = Netlist.add nl Netlist.Const0 [||] in
  let g = Netlist.add nl Netlist.And [| a; c0 |] in
  let y = Netlist.add nl Netlist.Po [| g |] in
  let f = { Fault.node = g; pin = None; stuck = false } in
  let gd = Guidance.provide nl ~observe:[ y ] ~faults:[ f ] in
  check "proved statically" true gd.Podem.g_static_untestable;
  (* The proof must agree with the full unguided search... *)
  let r, _ =
    Podem.generate nl ~faults:[ f ] ~assignable:[ a ] ~observe:[ y ]
  in
  check "podem agrees" true (r = Podem.Untestable);
  (* ...and with exhaustive simulation: activation needs g=1, never
     attainable. *)
  enum_states nl (fun st ->
      if st.(g) = 1 then Alcotest.fail "activation assignment exists");
  (* Guided run short-circuits with the static proof on record. *)
  let rg, e =
    Podem.generate ~guidance:gd nl ~faults:[ f ] ~assignable:[ a ]
      ~observe:[ y ]
  in
  check "guided untestable" true (rg = Podem.Untestable);
  check "static proof recorded" true e.Podem.static_proof;
  check_int "no decisions spent" 0 e.Podem.decisions

let test_guided_matches_unguided () =
  List.iter
    (fun seed ->
      let nl = Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14 in
      let assignable, observe = scan_view nl in
      List.iter
        (fun f ->
          let unguided, _ =
            Podem.generate ~backtrack_limit:30 nl ~faults:[ f ] ~assignable
              ~observe
          in
          let guided, _ =
            Podem.generate ~backtrack_limit:30
              ~guidance:(Guidance.provide nl ~observe ~faults:[ f ])
              nl ~faults:[ f ] ~assignable ~observe
          in
          (match (unguided, guided) with
           | Podem.Test _, Podem.Untestable
           | Podem.Untestable, Podem.Test _ ->
             Alcotest.failf "verdict flip on %s" (Fault.to_string nl f)
           | _, Podem.Aborted when unguided <> Podem.Aborted ->
             Alcotest.failf "guided regression on %s" (Fault.to_string nl f)
           | _ -> ());
          match guided with
          | Podem.Test assignment ->
            check "guided test detects" true
              (Podem.check nl ~faults:[ f ] ~assignment ~observe)
          | _ -> ())
        (Fault.collapsed nl))
    [ 7; 77; 777 ]

(* PODEM's effort where backtraces fail most: two unrolled frames with
   no scan, so frame-0 state is an unassignable X and most objectives
   backtrace into dead regions.  The summed effort and a digest of every
   per-fault (verdict, assignment) line are pinned to the values the
   memo-free backtrace produced: a search speed-up must make exactly the
   same decisions.  Pin faults on flip-flops are skipped — their
   frame-0 copy is a PI with no input pin. *)
let test_podem_effort_pinned () =
  let decisions = ref 0 and backtracks = ref 0 and implications = ref 0 in
  let cuts = ref 0 and n_faults = ref 0 in
  let lines = Buffer.create 4096 in
  List.iter
    (fun seed ->
      let nl = Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14 in
      let u, assignable, observe, map =
        Seq_atpg.unroll nl ~frames:2 ~scanned:[]
      in
      List.iter
        (fun f ->
          if f.Fault.pin = None || Netlist.kind nl f.Fault.node <> Netlist.Dff
          then begin
            incr n_faults;
            let faults = map f in
            List.iter
              (fun guidance ->
                let r, e =
                  Podem.generate ~backtrack_limit:30 ?guidance u ~faults
                    ~assignable ~observe
                in
                decisions := !decisions + e.Podem.decisions;
                backtracks := !backtracks + e.Podem.backtracks;
                implications := !implications + e.Podem.implications;
                cuts := !cuts + e.Podem.guided_cuts;
                Buffer.add_string lines
                  (match r with
                   | Podem.Test a ->
                     "test "
                     ^ String.concat ","
                         (List.map
                            (fun (p, b) ->
                              Printf.sprintf "%d=%d" p (Bool.to_int b))
                            a)
                   | Podem.Untestable -> "untestable"
                   | Podem.Aborted -> "aborted");
                Buffer.add_char lines '\n')
              [ None; Some (Guidance.provide u ~observe ~faults) ]
          end)
        (Fault.collapsed nl))
    [ 7; 77; 777 ];
  check_int "faults" 258 !n_faults;
  check_int "decisions" 2788 !decisions;
  check_int "backtracks" 3814 !backtracks;
  check_int "implications" 5192 !implications;
  check_int "guided cuts" 64 !cuts;
  Alcotest.(check string)
    "verdicts and assignments" "ce79309c338c691791b1ff351f8005bb"
    (Digest.to_hex (Digest.string (Buffer.contents lines)))

let test_guidance_cache () =
  Guidance.reset_cache ();
  let nl = Netlist_gen.sequential ~seed:5 ~n_pi:4 ~n_dff:2 ~n_gates:10 in
  let _, observe = scan_view nl in
  let f =
    match Fault.collapsed nl with f :: _ -> f | [] -> assert false
  in
  let g1 = Guidance.provide nl ~observe ~faults:[ f ] in
  let g2 = Guidance.provide nl ~observe ~faults:[ f ] in
  check "cached analyses give identical guidance" true (g1 = g2);
  Guidance.reset_cache ()

(* ------------------------------------------------------------------ *)
(* Lint hooks: the saturated-SCOAP nets behind HFT-L009/L010          *)
(* ------------------------------------------------------------------ *)

let test_lint_saturation_helpers () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let c0 = Netlist.add nl Netlist.Const0 [||] in
  let blocked = Netlist.add nl Netlist.Buf [| a |] in
  let g = Netlist.add nl Netlist.And [| blocked; c0 |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let m = Scoap.analyze nl in
  (* g can never be 1 -> uncontrollable; [blocked]'s only path runs
     through the masked And -> unobservable. *)
  check "g uncontrollable" true
    (List.mem g (Hft_lint.Rules.uncontrollable_nets nl m));
  check "blocked unobservable" true
    (List.mem blocked (Hft_lint.Rules.unobservable_nets nl m));
  (* A clean net trips neither helper. *)
  let nl2 = Netlist.create () in
  let p = Netlist.add nl2 Netlist.Pi [||] in
  let q = Netlist.add nl2 Netlist.Not [| p |] in
  let _y2 = Netlist.add nl2 Netlist.Po [| q |] in
  let m2 = Scoap.analyze nl2 in
  check_int "no uncontrollable" 0
    (List.length (Hft_lint.Rules.uncontrollable_nets nl2 m2));
  check_int "no unobservable" 0
    (List.length (Hft_lint.Rules.unobservable_nets nl2 m2))

let () =
  Alcotest.run "hft_analysis"
    [
      ( "dominators",
        [
          Alcotest.test_case "fanout-free chain" `Quick test_dom_fanout_free;
          Alcotest.test_case "reconvergent diamond" `Quick
            test_dom_reconvergent;
          Alcotest.test_case "unobservable gate" `Quick test_dom_unobservable;
          Alcotest.test_case "fig1b brute force" `Quick
            (test_dom_bruteforce Hft_core.Fig1_exp.B);
          Alcotest.test_case "fig1c brute force" `Quick
            (test_dom_bruteforce Hft_core.Fig1_exp.C);
        ] );
      ( "implications",
        [
          Alcotest.test_case "direct gate edges" `Quick test_impl_direct;
          Alcotest.test_case "sound vs exhaustive" `Quick
            test_impl_sound_random;
          Alcotest.test_case "constant contradiction" `Quick
            test_impl_constant_contradiction;
          Alcotest.test_case "matches full-cone reference" `Quick
            test_impl_matches_reference;
        ] );
      ( "guidance",
        [
          Alcotest.test_case "static untestable" `Quick test_static_untestable;
          Alcotest.test_case "guided matches unguided" `Quick
            test_guided_matches_unguided;
          Alcotest.test_case "analysis cache" `Quick test_guidance_cache;
          Alcotest.test_case "podem effort pinned" `Quick
            test_podem_effort_pinned;
        ] );
      ( "lint_saturation",
        [
          Alcotest.test_case "L009/L010 helpers" `Quick
            test_lint_saturation_helpers;
        ] );
    ]
