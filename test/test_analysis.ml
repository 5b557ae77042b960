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
          (Array.to_list (Netlist.fanouts nl).(u))
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
(* The parent search, kept as the oracle of PODEM's fast paths          *)
(* ------------------------------------------------------------------ *)

(* A verbatim copy of [Podem.generate] before its search state moved
   into flat workspace arrays (hashed test cube, a faulty machine probed
   at every node, fanout lists, netlist-sized cone arrays), with its own
   workspace and an X-path check that always walks.  Only telemetry is
   left out, plus three counters that show the draws reach the paths the
   rewrite had to keep in order, and three that grade the path each walk
   finds as the witness a later query of the same call would check. *)
module Parent_podem = struct
  open Podem

  let x = 2
  let reached_seeded = ref 0  (* guidance seeded two or more literals *)
  let reached_fallbacks = ref 0  (* [propagation_fallbacks] ran *)
  let reached_pi_stem = ref 0  (* a stem fault sits on a primary input *)

  (* At each X-path query after the call's first found path: that path
     still proves reachability (its root starts a walk, no later node is
     blocked), or it does not; and how often a path that still held met
     a walk that found nothing, which would make the witness unsound. *)
  let witness_held = ref 0
  let witness_lost = ref 0
  let witness_unsound = ref 0

  (* Controlling value of a gate kind, if any, and output inversion. *)
  let controlling = function
    | Netlist.And | Netlist.Nand -> Some 0
    | Netlist.Or | Netlist.Nor -> Some 1
    | Netlist.Not | Netlist.Buf | Netlist.Po | Netlist.Xor | Netlist.Xnor
    | Netlist.Mux2 | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1
      -> None

  let inverts = function
    | Netlist.Not | Netlist.Nand | Netlist.Nor | Netlist.Xnor -> true
    | Netlist.And | Netlist.Or | Netlist.Xor | Netlist.Buf | Netlist.Po
    | Netlist.Mux2 | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1
      -> false

  (* Search workspace, one per netlist (physical equality +
     {!Netlist.version}, so structural edits between calls invalidate it)
     and domain, so parallel ATPG shards never share (or race on) one —
     each worker warms its own for its own workspace netlist.  It holds
     the all-X good-machine fixpoint (every [generate] starts from the
     same empty test cube, so the first implication is a [blit] of it plus
     a fault-cone patch instead of two whole-netlist passes) and every
     per-node array a search needs, so a call allocates nothing
     netlist-sized.  Membership marks are stamps drawn from [w_stamp]:
     nothing is cleared between calls, and a search abandoned by an
     exception leaves nothing a later stamp can match. *)
  type workspace = {
    w_nl : Netlist.t;
    w_version : int;
    w_base : Sim.tstate;
    w_gv : Sim.tstate;
    w_fv : Sim.tstate;
    w_heap : Sim.heap;
    w_assignable : int array;
    w_observe : int array;
    w_d : int array;  (* D-carrying nodes *)
    w_xseen : int array;
    w_xstack : int array;
    w_xparent : int array;  (* X-path DFS parent, graded paths only *)
    w_pseen : int array;  (* D-frontier dedup *)
    w_dead : int array;  (* backtrace failures, slot [2*node + want] *)
    mutable w_stamp : int;
  }

  let fresh ws =
    ws.w_stamp <- ws.w_stamp + 1;
    ws.w_stamp

  let workspaces : workspace list Domain.DLS.key =
    Domain.DLS.new_key (fun () -> [])

  let workspace nl =
    let ver = Netlist.version nl in
    let cached = Domain.DLS.get workspaces in
    match List.find_opt (fun w -> w.w_nl == nl && w.w_version = ver) cached with
    | Some w -> w
    | None ->
      let n = Netlist.n_nodes nl in
      let base = Sim.tcreate nl in
      Sim.teval nl base;
      let marks () = Array.make n 0 in
      let w =
        { w_nl = nl; w_version = ver; w_base = base; w_gv = Sim.tcreate nl;
          w_fv = Sim.tcreate nl; w_heap = Sim.heap_create nl;
          w_assignable = marks (); w_observe = marks (); w_d = marks ();
          w_xseen = marks (); w_xstack = marks (); w_xparent = marks ();
          w_pseen = marks (); w_dead = Array.make (2 * n) 0; w_stamp = 0 }
      in
      let keep =
        List.filter (fun w -> w.w_nl != nl) cached
        |> List.filteri (fun i _ -> i < 3)
      in
      Domain.DLS.set workspaces (w :: keep);
      w

  let rec generate ?(backtrack_limit = 500) ?check ?guidance nl ~faults
      ~assignable ~observe =
    let n = Netlist.n_nodes nl in
    let effort =
      { decisions = 0; backtracks = 0; implications = 0; guided_cuts = 0;
        static_proof = false }
    in
    match guidance with
    | Some g when g.g_static_untestable ->
      (* The analysis proved no source assignment can both activate the
         fault and propagate its effect to an observe node — Untestable
         without touching the search state. *)
      effort.static_proof <- true;
      (Untestable, effort)
    | _ ->
    let gcost v want =
      match guidance with
      | Some g -> if want = 1 then g.g_cc1.(v) else g.g_cc0.(v)
      | None -> 0
    in
    if
      List.exists
        (fun f -> f.Fault.pin = None && Netlist.kind nl f.Fault.node = Netlist.Pi)
        faults
    then incr reached_pi_stem;
    let ws = workspace nl in
    let call = fresh ws in
    let pi_val = Hashtbl.create 16 in
    List.iter (fun p -> ws.w_assignable.(p) <- call) assignable;
    let is_assignable p = ws.w_assignable.(p) = call in
    let gv = ws.w_gv and fv = ws.w_fv in
    let dirty = ref [] in
    let initialized = ref false in
    (* The set of D-carrying nodes (good and faulty machines both concrete
       and different) is maintained incrementally from the implication
       wavefront: has_d can only flip at nodes whose gv or fv changed, so
       the per-iteration D consumers — detection, X-path seeding, the
       D-frontier — cost O(|D|) instead of a cone scan. *)
    let is_d v = ws.w_d.(v) = call in
    let d_list = ref [] in
    let changed = ref [] in
    let has_d v = gv.(v) <> x && fv.(v) <> x && gv.(v) <> fv.(v) in
    let update_d () =
      match !changed with
      | [] -> ()
      | ch ->
        changed := [];
        let newd = ref [] in
        List.iter
          (fun v ->
            let nd = has_d v in
            if nd && not (is_d v) then newd := v :: !newd;
            ws.w_d.(v) <- (if nd then call else 0))
          ch;
        d_list := !newd @ List.filter is_d !d_list
    in
    let set_pi p v =
      Hashtbl.replace pi_val p v;
      dirty := p :: !dirty
    in
    let unset_pi p =
      Hashtbl.remove pi_val p;
      dirty := p :: !dirty
    in
    (* Mandatory assignments: literals every detecting test must satisfy
       (dominator side inputs at non-controlling values, SOCRATES style).
       They are seeded outside the decision stack, so exhausting the
       remaining decisions still proves untestability — no detecting test
       violates a mandatory literal. *)
    (match guidance with
     | None -> ()
     | Some g ->
       Array.iter
         (fun (w, v) ->
           if w >= 0 && w < n && is_assignable w
              && not (Hashtbl.mem pi_val w)
           then set_pi w v)
         g.g_common_required);
    if Hashtbl.length pi_val >= 2 then incr reached_seeded;
    (* Event-driven implication over a topo-ordered heap.  The
       combinational fixpoint is a pure function of the sources, so after
       a decision or backtrack only nodes downstream of an actual value
       change need re-evaluation: each changed node pushes its consumers,
       the heap pops in topological order (so a node is evaluated once,
       after its fanins settled), and an evaluation that reproduces the
       old value stops the wavefront.  Reproduces a full pass bit for
       bit. *)
    let geval = Sim.teval_fn nl in
    let feval = Sim.teval_fn ~faults nl in
    let heap = ws.w_heap in
    let propagate_from v =
      List.iter (Sim.heap_push heap) (Array.to_list (Netlist.fanouts nl).(v))
    in
    let drain () =
      while not (Sim.heap_is_empty heap) do
        let v = Sim.heap_pop heap in
        let og = gv.(v) and ofv = fv.(v) in
        geval gv v;
        feval fv v;
        if gv.(v) <> og || fv.(v) <> ofv then begin
          changed := v :: !changed;
          propagate_from v
        end
      done
    in
    let touch_source p v =
      let og = gv.(p) and ofv = fv.(p) in
      gv.(p) <- v;
      fv.(p) <- v;
      (* A stem fault on a source keeps it forced. *)
      feval fv p;
      if gv.(p) <> og || fv.(p) <> ofv then begin
        changed := p :: !changed;
        propagate_from p
      end
    in
    let imply () =
      effort.implications <- effort.implications + 1;
      if not !initialized then begin
        initialized := true;
        dirty := [];
        Array.blit ws.w_base 0 gv 0 n;
        Array.blit ws.w_base 0 fv 0 n;
        changed := [];
        Sim.heap_reset heap;
        (* The cube is empty on the first implication in the current
           search order, but stay general. *)
        Hashtbl.iter (fun p v -> touch_source p v) pi_val;
        (* Patch the faulty machine at the injection sites; the wavefront
           carries the difference forward. *)
        List.iter
          (fun f ->
            let v = f.Fault.node in
            let ofv = fv.(v) in
            feval fv v;
            if fv.(v) <> ofv then begin
              changed := v :: !changed;
              propagate_from v
            end)
          faults;
        drain ();
        update_d ()
      end
      else
        match List.sort_uniq compare !dirty with
        | [] -> ()
        | ds ->
          dirty := [];
          changed := [];
          Sim.heap_reset heap;
          List.iter
            (fun p ->
              let v =
                match Hashtbl.find_opt pi_val p with Some v -> v | None -> x
              in
              touch_source p v)
            ds;
          drain ();
          update_d ()
    in
    List.iter (fun o -> ws.w_observe.(o) <- call) observe;
    let observed v = ws.w_observe.(v) = call in
    let detected () = List.exists observed !d_list in
    (* Guided cut: a concrete good-machine value contradicting a
       mandatory literal — or, for multi-site faults, contradicting every
       site's activation closure — means no completion of the current
       cube detects the fault, so the branch can be pruned without
       waiting for the D-frontier to die.  Sound: the closures only hold
       literals true in every detecting completion (per site), so the cut
       never removes a test. *)
    let guided_conflict () =
      match guidance with
      | None -> false
      | Some g ->
        let violated (w, v) = w >= 0 && w < n && gv.(w) <> x && gv.(w) <> v in
        Array.exists violated g.g_common_required
        || (Array.length g.g_site_required > 0
            && Array.for_all
                 (fun site -> Array.exists violated site)
                 g.g_site_required)
    in
    (* X-path: from any D-carrying node, can a difference still reach an
       observe node through not-yet-blocked nodes?  Pure reachability, so
       visit order is irrelevant and the first observe hit ends the walk. *)
    let xseen = ws.w_xseen and xstack = ws.w_xstack in
    let xparent = ws.w_xparent in
    let last_path = ref [] in  (* root first *)
    let xpath_ok () =
      let blocked v = gv.(v) <> x && fv.(v) <> x && gv.(v) = fv.(v) in
      let held =
        match !last_path with
        | [] -> None
        | root :: later ->
          let starts =
            has_d root
            || (not (blocked root))
               && List.exists
                    (fun f ->
                      match f.Fault.pin with
                      | Some p ->
                        f.Fault.node = root
                        &&
                        let drv = (Netlist.fanin nl root).(p) in
                        gv.(drv) <> x && gv.(drv) <> Bool.to_int f.Fault.stuck
                      | None -> false)
                    faults
          in
          Some (starts && not (List.exists blocked later))
      in
      (match held with
       | Some true -> incr witness_held
       | Some false -> incr witness_lost
       | None -> ());
      let s = fresh ws in
      let top = ref 0 in
      let push v =
        xseen.(v) <- s;
        xstack.(!top) <- v;
        incr top
      in
      List.iter
        (fun v ->
          if xseen.(v) <> s then begin
            xparent.(v) <- -1;
            push v
          end)
        !d_list;
      (* Activated pin faults originate their difference at the consumer
         gate even before any node carries a D. *)
      List.iter
        (fun f ->
          match f.Fault.pin with
          | Some p ->
            let drv = (Netlist.fanin nl f.Fault.node).(p) in
            if gv.(drv) <> x
               && gv.(drv) <> (if f.Fault.stuck then 1 else 0)
               && xseen.(f.Fault.node) <> s
               && not (blocked f.Fault.node)
            then begin
              xparent.(f.Fault.node) <- -1;
              push f.Fault.node
            end
          | None -> ())
        faults;
      let reach = ref false in
      while (not !reach) && !top > 0 do
        decr top;
        let v = xstack.(!top) in
        if observed v then begin
          reach := true;
          let rec path v acc =
            if v < 0 then acc else path xparent.(v) (v :: acc)
          in
          last_path := path v []
        end
        else
          List.iter
            (fun w ->
              if xseen.(w) <> s && not (blocked w) then begin
                xparent.(w) <- v;
                push w
              end)
            (Array.to_list (Netlist.fanouts nl).(v))
      done;
      if held = Some true && not !reach then incr witness_unsound;
      !reach
    in
    (* Activation objectives: one per fault site whose good value is
       still X (several sites exist when a fault is replicated across
       time frames — any of them may be the one that can be justified). *)
    let activation_objectives () =
      let objs =
        List.filter_map
          (fun f ->
            let want = if f.Fault.stuck then 0 else 1 in
            let site_node =
              match f.Fault.pin with
              | None -> f.Fault.node
              | Some p -> (Netlist.fanin nl f.Fault.node).(p)
            in
            if gv.(site_node) = x then Some (site_node, want) else None)
          faults
      in
      match guidance with
      | None -> objs
      | Some _ ->
        (* Cheapest-to-justify site first (SCOAP CC): the search commits
           its budget to the easy activations before the hopeless ones. *)
        List.stable_sort
          (fun (a, wa) (b, wb) -> compare (gcost a wa, a) (gcost b wb, b))
          objs
    in
    let activated () =
      List.exists
        (fun f ->
          let want = if f.Fault.stuck then 0 else 1 in
          let site_good =
            match f.Fault.pin with
            | None -> gv.(f.Fault.node)
            | Some p -> gv.((Netlist.fanin nl f.Fault.node).(p))
          in
          site_good = want)
        faults
    in
    (* D-frontier objectives: gates with a D input (or an activated pin
       fault) and an undetermined output. *)
    let pin_fault_active v =
      List.exists
        (fun f ->
          match f.Fault.pin with
          | Some p ->
            f.Fault.node = v
            &&
            let drv = (Netlist.fanin nl v).(p) in
            gv.(drv) <> x && gv.(drv) <> (if f.Fault.stuck then 1 else 0)
          | None -> false)
        faults
    in
    let pseen = ws.w_pseen in
    let propagation_objectives () =
      (* Frontier gates either consume a D node or host an activated pin
         fault, so enumerating D consumers beats any scan.  The stamp
         array dedups gates fed by several D inputs; the sort keeps the
         historical ascending-node-id candidate order. *)
      let s = fresh ws in
      let acc = ref [] in
      let consider v =
        if pseen.(v) <> s then begin
          pseen.(v) <- s;
          match Netlist.kind nl v with
          | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 -> ()
          | k ->
            if gv.(v) = x || fv.(v) = x then begin
              (* Set an X input to the non-controlling value (or, for
                 kinds without one, a heuristic value — implication sorts
                 it out). *)
              let v_obj =
                match controlling k with Some c -> 1 - c | None -> 1
              in
              let inputs = Netlist.fanin nl v in
              let pick =
                match guidance with
                | None ->
                  Array.to_list inputs
                  |> List.find_opt (fun i -> gv.(i) = x || fv.(i) = x)
                | Some _ ->
                  (* Cheapest X side input first: justifying the
                     non-controlling value there costs the least. *)
                  Array.fold_left
                    (fun best i ->
                      if gv.(i) = x || fv.(i) = x then
                        match best with
                        | Some j when gcost j v_obj <= gcost i v_obj -> best
                        | _ -> Some i
                      else best)
                    None inputs
              in
              match pick with
              | Some i -> acc := (v, (i, v_obj)) :: !acc
              | None -> ()
            end
        end
      in
      List.iter
        (fun d -> List.iter consider (Array.to_list (Netlist.fanouts nl).(d)))
        !d_list;
      List.iter
        (fun f ->
          if f.Fault.pin <> None && pin_fault_active f.Fault.node then
            consider f.Fault.node)
        faults;
      (match guidance with
       | None -> List.sort (fun (a, _) (b, _) -> compare a b) !acc
       | Some g ->
         (* Best-observability frontier gate first (SCOAP CO): drive the
            difference down the path most likely to reach an observe
            node. *)
         List.sort
           (fun (a, _) (b, _) -> compare (g.g_co.(a), a) (g.g_co.(b), b))
           !acc)
      |> List.map snd
    in
    (* Completeness fallback for the frontier: the primary objective list
       offers one X input per frontier gate (and one heuristic polarity
       for kinds without a controlling value).  When every primary
       candidate fails to backtrace, the cube is not necessarily dead —
       another X input of the same gate may reach a free PI, and an
       XOR/MUX side input may propagate at the other polarity.  These
       fallbacks are only consulted after the primary list fails, so a
       search that never hits the old premature dead end is bit-identical
       to the historical one. *)
    let propagation_fallbacks () =
      incr reached_fallbacks;
      let s = fresh ws in
      let acc = ref [] in
      let consider v =
        if pseen.(v) <> s then begin
          pseen.(v) <- s;
          match Netlist.kind nl v with
          | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 -> ()
          | k ->
            if gv.(v) = x || fv.(v) = x then
              Array.iter
                (fun i ->
                  if gv.(i) = x || fv.(i) = x then
                    match controlling k with
                    | Some c -> acc := (i, 1 - c) :: !acc
                    | None ->
                      acc := (i, 1) :: !acc;
                      acc := (i, 0) :: !acc)
                (Netlist.fanin nl v)
        end
      in
      List.iter
        (fun d -> List.iter consider (Array.to_list (Netlist.fanouts nl).(d)))
        !d_list;
      List.iter
        (fun f ->
          if f.Fault.pin <> None && pin_fault_active f.Fault.node then
            consider f.Fault.node)
        faults;
      List.rev !acc
    in
    (* Backtrace an objective to a free assignable PI: walk X fanins,
       flipping the wanted value at inversions.  Under guidance the fanins
       are tried easiest-to-set first (SCOAP CC for the wanted value, a
       stable sort, so ties keep pin order); unguided every cost is 0 and
       the order is the historical pin order.  The PI and its value come
       back in [bt_pi]/[bt_val].

       Failed (node, want) pairs are memoised in the workspace under an
       epoch that every backtrack renews.  Between backtracks the cube
       only grows — good values only refine from X and free PIs only
       disappear — so a pair that reached no free PI still reaches none;
       a backtrack unsets or flips a PI, so its failures are forgotten.
       Only failures are memoised and the order is unchanged, so every
       call returns what a memo-free walk would.  Without the memo the
       search is exponential on reconvergent all-X regions (multiplier
       arrays across several time frames). *)
    let dead = ws.w_dead in
    let epoch = ref (fresh ws) in
    let bt_pi = ref 0 and bt_val = ref 0 in
    let rec backtrace node want =
      let slot = (2 * node) + want in
      dead.(slot) <> !epoch
      &&
      let found =
        match Netlist.kind nl node with
        | Netlist.Pi | Netlist.Dff ->
          (* DFFs appear here under the scan view, where flip-flop state
             is a free (pseudo-primary-input) decision. *)
          is_assignable node
          && (not (Hashtbl.mem pi_val node))
          && begin
            bt_pi := node;
            bt_val := want;
            true
          end
        | Netlist.Const0 | Netlist.Const1 -> false
        | k ->
          let fi = Netlist.fanin nl node in
          let want = if inverts k then 1 - want else want in
          if Array.length fi = 1 then try_pin fi 0 want
          else
            let lo, hi =
              if gcost fi.(1) want < gcost fi.(0) want then (1, 0) else (0, 1)
            in
            if Array.length fi = 2 then
              try_pin fi lo want || try_pin fi hi want
            else
              (* Mux2: insert the third pin into the sorted pair. *)
              let c2 = gcost fi.(2) want in
              if c2 < gcost fi.(lo) want then
                try_pin fi 2 want || try_pin fi lo want || try_pin fi hi want
              else if c2 < gcost fi.(hi) want then
                try_pin fi lo want || try_pin fi 2 want || try_pin fi hi want
              else try_pin fi lo want || try_pin fi hi want || try_pin fi 2 want
      in
      if not found then dead.(slot) <- !epoch;
      found
    and try_pin fi i want = gv.(fi.(i)) = x && backtrace fi.(i) want in
    (* Decision stack: (pi, value, tried_both). *)
    let stack = ref [] in
    let rec backtrack () =
      effort.backtracks <- effort.backtracks + 1;
      epoch := fresh ws;
      match !stack with
      | [] -> `Exhausted
      | (pi, _, true) :: tl ->
        unset_pi pi;
        stack := tl;
        backtrack ()
      | (pi, v, false) :: tl ->
        set_pi pi (1 - v);
        stack := (pi, 1 - v, true) :: tl;
        `Continue
    in
    let result = ref None in
    (try
       while !result = None do
         (* Cooperative deadline hook: one call per search iteration; may
            raise to abandon the attempt (the supervisor catches it). *)
         (match check with Some c -> c () | None -> ());
         imply ();
         if detected () then result := Some (`Found)
         else if effort.backtracks > backtrack_limit then result := Some `Aborted
         else if guided_conflict () then begin
           effort.guided_cuts <- effort.guided_cuts + 1;
           match backtrack () with
           | `Exhausted -> result := Some `Untestable
           | `Continue -> ()
         end
         else begin
           let objectives =
             if not (activated ()) then activation_objectives ()
             else
               (* For multi-site faults (one fault replicated across time
                  frames) activation at one site must not stop the search
                  from activating another: the detecting test may need a
                  different site's effect.  So the X-path check only
                  gates propagation, and the remaining activation
                  objectives always stay live.  Single-site behaviour is
                  unchanged: an activated lone site has a concrete good
                  value, so [acts] is empty and this reduces to the
                  classic activate / x-path / propagate ladder. *)
               let acts = activation_objectives () in
               if xpath_ok () then propagation_objectives () @ acts else acts
           in
           (* Try each candidate objective until one backtraces to a free
              assignable PI. *)
           let rec decide = function
             | [] -> true (* must backtrack *)
             | (node, want) :: rest ->
               if backtrace node want then begin
                 effort.decisions <- effort.decisions + 1;
                 set_pi !bt_pi !bt_val;
                 stack := (!bt_pi, !bt_val, false) :: !stack;
                 false
               end
               else decide rest
           in
           if
             decide objectives
             && ((not !propagation_fallbacks_enabled)
                 || not (activated ()) || not (xpath_ok ())
                 || decide (propagation_fallbacks ()))
           then
             match backtrack () with
             | `Exhausted -> result := Some `Untestable
             | `Continue -> ()
         end
       done
     with Stack_overflow -> result := Some `Aborted);
    let outcome =
      match !result with
      | Some `Found ->
        let assignment =
          Hashtbl.fold (fun p v acc -> (p, v = 1) :: acc) pi_val []
          |> List.sort compare
        in
        Test assignment
      | Some `Untestable -> Untestable
      | Some `Aborted | None -> Aborted
    in
    match outcome, guidance with
    | Aborted, Some _ ->
      (* Guided ordering reshapes the budget-limited search, so a guided
         abort could hide a verdict the classic order would have reached.
         Falling back to an unguided run makes the guided per-fault
         verdict provably no worse than the unguided one: Test and
         Untestable are sound proofs wherever they come from, and a
         guided Aborted resolves to exactly the unguided outcome. *)
      let r2, e2 = generate ~backtrack_limit ?check nl ~faults ~assignable
          ~observe
      in
      e2.decisions <- e2.decisions + effort.decisions;
      e2.backtracks <- e2.backtracks + effort.backtracks;
      e2.implications <- e2.implications + effort.implications;
      e2.guided_cuts <- effort.guided_cuts;
      (r2, e2)
    | _ -> (outcome, effort)

end

(* The parent [Guidance.provide]: the fault cones' union built with
   [Netlist.fanout_cone_union] and a fresh membership array per call,
   on analyses computed once per netlist and observe set. *)
module Parent_guidance = struct
  (* Calls whose every site is opaque or reaches no observe node:
     [Guidance.provide] decides them before it builds a requirement, so
     it never marks their cone union. *)
  let coneless = ref 0

  type analyses = {
    a_scoap : Scoap.t;
    a_dom : Dominators.t;
    a_impl : Implications.t;
  }

  let analyses nl ~observe =
    { a_scoap = Scoap.analyze nl;
      a_dom = Dominators.compute nl ~observe;
      a_impl = Implications.compute nl }

  (* Non-controlling side-input requirements for a difference crossing
     gate [g], given that inputs inside [in_ucone] may carry the
     difference (and so are unconstrained).  [skip] masks the faulted pin
     for consumer gates. *)
  let side_requirements nl ~in_ucone ?(skip = -1) g =
    let fi = Netlist.fanin nl g in
    let reqs = ref [] in
    (match Netlist.kind nl g with
     | Netlist.And | Netlist.Nand ->
       Array.iteri
         (fun j a -> if j <> skip && not (in_ucone a) then reqs := (a, 1) :: !reqs)
         fi
     | Netlist.Or | Netlist.Nor ->
       Array.iteri
         (fun j a -> if j <> skip && not (in_ucone a) then reqs := (a, 0) :: !reqs)
         fi
     | Netlist.Mux2 ->
       (* [sel; a; b], sel = 1 selects b.  When the difference can only
          arrive through one data leg, the select must route that leg.
          A faulted select pin ([skip = 0]) leaves the select free. *)
       let sel = fi.(0) and a = fi.(1) and b = fi.(2) in
       if skip <> 0 && not (in_ucone sel) then begin
         let a_live = skip = 1 || in_ucone a in
         let b_live = skip = 2 || in_ucone b in
         if a_live && not b_live then reqs := (sel, 0) :: !reqs
         else if b_live && not a_live then reqs := (sel, 1) :: !reqs
       end
     | Netlist.Xor | Netlist.Xnor | Netlist.Buf | Netlist.Not | Netlist.Po
     | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 -> ());
    !reqs

  type site =
    | Dead  (* provably undetectable through this site *)
    | Opaque  (* unanalyzable: no requirements, no claims *)
    | Live of (int * int) list  (* closed requirement set *)

  let analyze_site nl a ~in_ucone f =
    let n = Netlist.n_nodes nl in
    let origin = f.Fault.node in
    if origin < 0 || origin >= n then Opaque
    else
      let want = if f.Fault.stuck then 0 else 1 in
      let base =
        match f.Fault.pin with
        | None -> Some [ (origin, want) ]
        | Some p ->
          let fi = Netlist.fanin nl origin in
          if p < 0 || p >= Array.length fi then None
          else if Netlist.kind nl origin = Netlist.Dff then None
          else
            Some
              ((fi.(p), want)
               :: side_requirements nl ~in_ucone ~skip:p origin)
      in
      match base with
      | None -> Opaque
      | Some base ->
        if not (Dominators.reaches a.a_dom origin) then Dead
        else begin
          let dom_reqs =
            List.concat_map
              (fun d -> side_requirements nl ~in_ucone d)
              (Dominators.chain a.a_dom origin)
          in
          match Implications.closure a.a_impl (base @ dom_reqs) with
          | Implications.Contradiction -> Dead
          | Implications.Consistent lits -> Live lits
        end

  let provide (a : analyses) nl ~faults =
    let ucone =
      Netlist.fanout_cone_union nl (List.map (fun f -> f.Fault.node) faults)
    in
    let n = Netlist.n_nodes nl in
    let in_cone = Array.make n false in
    Array.iter (fun v -> in_cone.(v) <- true) ucone;
    let in_ucone v = v >= 0 && v < n && in_cone.(v) in
    let sites = List.map (analyze_site nl a ~in_ucone) faults in
    let decided_early f =
      let v = f.Fault.node in
      (match f.Fault.pin with
       | Some p ->
         p < 0
         || p >= Array.length (Netlist.fanin nl v)
         || Netlist.kind nl v = Netlist.Dff
       | None -> false)
      || not (Dominators.reaches a.a_dom v)
    in
    if List.for_all decided_early faults then incr coneless;
    let any_live_or_opaque =
      List.exists (function Dead -> false | _ -> true) sites
    in
    let static_untestable = faults <> [] && not any_live_or_opaque in
    (* Dead sites are dropped (they admit no detecting test, so they must
       not weaken the intersection or the cut); opaque sites keep an
       empty set, which voids the cut and the intersection — exactly the
       do-no-harm degradation. *)
    let kept =
      List.filter_map
        (function
          | Dead -> None
          | Opaque -> Some []
          | Live lits -> Some lits)
        sites
    in
    let common =
      match kept with
      | [] -> []
      | first :: rest ->
        List.filter
          (fun lit -> List.for_all (fun set -> List.mem lit set) rest)
          first
    in
    {
      Podem.g_static_untestable = static_untestable;
      g_common_required = Array.of_list common;
      g_site_required =
        (if static_untestable then [||]
         else Array.of_list (List.map Array.of_list kept));
      g_cc0 = a.a_scoap.Scoap.cc0;
      g_cc1 = a.a_scoap.Scoap.cc1;
      g_co = a.a_scoap.Scoap.co;
    }
end

(* ------------------------------------------------------------------ *)
(* The search and the cone marks against the parent's                 *)
(* ------------------------------------------------------------------ *)

(* One draw: a netlist from [Netlist_gen.sequential] ([flavour = 0]) or
   from [Netlist_gen.generate] under one of the four gate mixes, unrolled
   through [Seq_atpg.unroll] at [frames] frames with none, every other or
   every flip-flop scanned, and the fault sites of every collapsed fault
   except the D-pin faults of unscanned flip-flops.  A flip-flop's
   frame-0 copy is a primary input with no pin, so a D-pin fault makes
   both searches raise; the scanned ones stay in, and must raise the
   same exception. *)
let draw (seed, flavour, frames, scan) =
  let nl =
    match flavour with
    | 0 ->
      Netlist_gen.sequential ~seed ~n_pi:(3 + (seed mod 3))
        ~n_dff:(1 + (seed mod 4)) ~n_gates:(10 + (seed mod 17))
    | m ->
      let mix =
        Netlist_gen.[| Balanced; Xor_heavy; Mux_heavy; Chain_heavy |].(m - 1)
      in
      Netlist_gen.generate ~seed
        { Netlist_gen.default with
          Netlist_gen.g_mix = mix; g_n_gates = 10 + (seed mod 23);
          g_hub_bias = seed mod 3; g_window = (if seed mod 5 = 0 then 4 else 0) }
  in
  let dffs = Netlist.dffs nl in
  let scanned =
    match scan with
    | 0 -> []
    | 1 -> List.filteri (fun i _ -> i mod 2 = 0) dffs
    | _ -> dffs
  in
  let u, assignable, observe, map = Seq_atpg.unroll nl ~frames ~scanned in
  let faults =
    List.filter
      (fun f ->
        f.Fault.pin = None
        || Netlist.kind nl f.Fault.node <> Netlist.Dff
        || List.mem f.Fault.node scanned)
      (Fault.collapsed nl)
  in
  (u, assignable, observe, List.map map faults)

let arb_draw =
  QCheck.(
    quad (int_bound 100_000) (int_bound 4) (int_range 1 3) (int_range 0 2))

(* Both searches on the same arguments: verdict, assignment and every
   effort field, or the same exception. *)
let same_search ?check ?guidance ~backtrack_limit u ~faults ~assignable
    ~observe =
  let attempt search =
    match search () with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  attempt (fun () ->
      Podem.generate ~backtrack_limit ?check ?guidance u ~faults ~assignable
        ~observe)
  = attempt (fun () ->
        Parent_podem.generate ~backtrack_limit ?check ?guidance u ~faults
          ~assignable ~observe)

(* Each fault is searched against every observe node and then against
   every other one, on the same netlist and so the same workspace: a
   path kept from the previous call may end at a node the next call
   does not observe. *)
let prop_podem_matches_parent =
  QCheck.Test.make ~name:"PODEM = the parent search" ~count:120 arb_draw
    (fun d ->
      let u, assignable, all_observed, sites = draw d in
      let fewer = List.filteri (fun i _ -> i mod 2 = 0) all_observed in
      List.for_all
        (fun faults ->
          List.for_all
            (fun observe ->
              let guided = Guidance.provide u ~observe ~faults in
              List.for_all
                (fun guidance ->
                  List.for_all
                    (fun backtrack_limit ->
                      same_search ?guidance ~backtrack_limit u ~faults
                        ~assignable ~observe)
                    [ 0; 1; 5; 30 ])
                [ None; Some guided ])
            [ all_observed; fewer ])
        sites)

(* The draws must reach the paths whose order the flat search state had
   to keep: guidance seeding two or more literals (the first
   implication's source order), the propagation fallbacks (which read
   [d_list] in order) and stem faults on primary inputs (a source that
   carries a D).  They must also reach both answers of the X-path
   witness: a last path that still proves reachability, which the
   search takes without walking, and one that no longer does, where it
   must walk; and a path that held must never meet a walk that finds
   nothing. *)
let test_podem_matches_parent () =
  Parent_podem.reached_seeded := 0;
  Parent_podem.reached_fallbacks := 0;
  Parent_podem.reached_pi_stem := 0;
  Parent_podem.witness_held := 0;
  Parent_podem.witness_lost := 0;
  Parent_podem.witness_unsound := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 27 |])
    prop_podem_matches_parent;
  check "guidance seeded two or more literals" true
    (!Parent_podem.reached_seeded > 0);
  check "propagation fallbacks ran" true (!Parent_podem.reached_fallbacks > 0);
  check "stem faults on primary inputs" true
    (!Parent_podem.reached_pi_stem > 0);
  check "a last X-path still held" true (!Parent_podem.witness_held > 0);
  check "a last X-path no longer held" true (!Parent_podem.witness_lost > 0);
  check_int "held X-paths the walk refuted" 0 !Parent_podem.witness_unsound

(* Two stem faults on primary inputs, both seeded as mandatory
   literals: each seeded source carries a D from the first implication
   on, so the order the first implication touches them in is the order
   of [d_list], and with it of the propagation fallbacks, the only
   candidates here (every primary pick is a select driven from an
   unassignable input).  The fallbacks decide [k1] first or last, and
   the requirement set cuts every branch with [k1 = 1], so the order
   shows in the effort.  Both literal orders must match the parent
   search, which took the order of its hashed cube. *)
let test_podem_seed_order () =
  let nl = Netlist.create () in
  let pi () = Netlist.add nl Netlist.Pi [||] in
  let a = pi () and b = pi () and z = pi () in
  let k1 = pi () and k2 = pi () and k3 = pi () in
  let u = Netlist.add nl Netlist.Not [| z |] in
  let h = Netlist.add nl Netlist.And [| k2; k3 |] in
  let m1 = Netlist.add nl Netlist.Mux2 [| u; a; k1 |] in
  let m2 = Netlist.add nl Netlist.Mux2 [| u; b; h |] in
  let y1 = Netlist.add nl Netlist.Po [| m1 |] in
  let y2 = Netlist.add nl Netlist.Po [| m2 |] in
  let n = Netlist.n_nodes nl in
  let faults =
    [ { Fault.node = a; pin = None; stuck = false };
      { Fault.node = b; pin = None; stuck = false } ]
  in
  List.iter
    (fun required ->
      let guidance =
        { Podem.g_static_untestable = false; g_common_required = required;
          g_site_required = [| [| (k1, 0) |] |]; g_cc0 = Array.make n 0;
          g_cc1 = Array.make n 0; g_co = Array.make n 0 }
      in
      List.iter
        (fun faults ->
          if
            not
              (same_search ~guidance ~backtrack_limit:50 nl ~faults
                 ~assignable:[ a; b; k1; k2; k3 ] ~observe:[ y1; y2 ])
          then Alcotest.fail "seeded sources touched in another order")
        [ faults; List.rev faults ])
    [ [| (a, 1); (b, 1) |]; [| (b, 1); (a, 1) |] ]

(* A search abandoned by its [check] leaves the workspace to the next
   one, which must not see it; and the regression-canary knob switches
   the fallbacks off in both searches alike. *)
let test_podem_abandoned_and_canary () =
  let raised = ref 0 in
  List.iter
    (fun d ->
      let u, assignable, observe, sites = draw d in
      List.iter
        (fun faults ->
          let calls = ref 0 in
          let check () =
            incr calls;
            if !calls > 2 then raise Exit
          in
          (match
             Podem.generate ~backtrack_limit:30 ~check u ~faults ~assignable
               ~observe
           with
           | _ -> ()
           | exception Exit -> incr raised
           | exception Invalid_argument _ -> ());
          List.iter
            (fun guidance ->
              if
                not
                  (same_search ?guidance ~backtrack_limit:30 u ~faults
                     ~assignable ~observe)
              then Alcotest.fail "search after an abandoned one differs")
            [ None; Some (Guidance.provide u ~observe ~faults) ])
        sites)
    [ (7, 0, 2, 0); (77, 2, 3, 1); (777, 3, 2, 2) ];
  check "some searches were abandoned" true (!raised > 0);
  let u, assignable, observe, sites = draw (7, 0, 2, 0) in
  Fun.protect
    ~finally:(fun () -> Podem.propagation_fallbacks_enabled := true)
    (fun () ->
      Podem.propagation_fallbacks_enabled := false;
      List.iter
        (fun faults ->
          if
            not
              (same_search ~backtrack_limit:30 u ~faults ~assignable ~observe)
          then Alcotest.fail "search without fallbacks differs")
        sites)

(* Fault lists the analysis decides without a requirement: pin faults
   on flip-flops and pins past a node's fanin array (opaque), alone and
   together. *)
let opaque_sites nl =
  let on_dffs =
    List.concat_map
      (fun d ->
        [ { Fault.node = d; pin = Some 0; stuck = false };
          { Fault.node = d; pin = Some 0; stuck = true } ])
      (Netlist.dffs nl)
  in
  let past_fanin =
    List.init (Netlist.n_nodes nl) (fun v ->
        { Fault.node = v; pin = Some (Array.length (Netlist.fanin nl v));
          stuck = v mod 2 = 0 })
  in
  let first_three l = List.filteri (fun i _ -> i < 3) l in
  List.map (fun f -> [ f ]) (on_dffs @ past_fanin)
  @ List.map2
      (fun a b -> [ a; b ])
      (first_three past_fanin)
      (first_three (List.rev past_fanin))

(* [Guidance.provide] marks the faults' cone union with a stamp in its
   domain-local analyses entry, and only once a live site asks for a
   side requirement; the parent built the union and a fresh membership
   array on every call.  Calls alternate between six netlists and two
   observe sets on each, so stamps and entries interleave: per draw,
   its unrolled view, a one-frame view whose flip-flop D-pin faults sit
   on frame-0 inputs (a pin past the fanin array), and a sequential
   netlist, whose flip-flops carry pin faults; halving the observe set
   leaves sites that reach no observe node.  Some calls must be decided
   without a cone, and a fault outside the netlist must raise what the
   parent raised. *)
let test_guidance_matches_parent () =
  Guidance.reset_cache ();
  Parent_guidance.coneless := 0;
  let outcome f = match f () with g -> Ok g | exception e -> Error e in
  List.iter
    (fun (d1, d2) ->
      let legs =
        List.concat_map
          (fun (seed, flavour, frames, scan) ->
            let u, _, observe, sites = draw (seed, flavour, frames, scan) in
            let seq =
              Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14
            in
            let _, seq_observe = scan_view seq in
            let one_frame, _, one_observe, map =
              Seq_atpg.unroll seq ~frames:1 ~scanned:[]
            in
            let d_pins =
              List.filter_map
                (fun f ->
                  if f.Fault.pin <> None
                     && Netlist.kind seq f.Fault.node = Netlist.Dff
                  then Some (map f)
                  else None)
                (Fault.collapsed seq)
            in
            List.concat_map
              (fun (nl, observe, sites) ->
                let fewer = List.filteri (fun i _ -> i mod 2 = 0) observe in
                let sites = sites @ opaque_sites nl in
                [ (nl, observe, sites); (nl, fewer, sites) ])
              [ (u, observe, sites);
                ( seq, seq_observe,
                  List.map (fun f -> [ f ]) (Fault.collapsed seq) );
                (one_frame, one_observe, d_pins) ])
          [ d1; d2 ]
        |> List.map (fun (u, observe, sites) ->
               (u, observe, Parent_guidance.analyses u ~observe, sites))
      in
      let longest =
        List.fold_left (fun m (_, _, _, s) -> max m (List.length s)) 0 legs
      in
      for i = 0 to longest - 1 do
        List.iter
          (fun (u, observe, a, sites) ->
            match List.nth_opt sites i with
            | None -> ()
            | Some faults ->
              if
                Guidance.provide u ~observe ~faults
                <> Parent_guidance.provide a u ~faults
              then Alcotest.failf "guidance differs on fault %d" i)
          legs
      done;
      List.iter
        (fun (u, observe, a, sites) ->
          let n = Netlist.n_nodes u in
          List.iter
            (fun (inside, outside) ->
              let faults =
                inside @ [ { Fault.node = outside; pin = None; stuck = false } ]
              in
              match
                ( outcome (fun () -> Guidance.provide u ~observe ~faults),
                  outcome (fun () -> Parent_guidance.provide a u ~faults) )
              with
              | Error e, Error e' when e = e' -> ()
              | _ -> Alcotest.failf "node %d outside the netlist" outside)
            (List.concat_map
               (fun inside -> [ (inside, n); (inside, -1) ])
               [ List.hd sites; List.hd (List.rev sites) ]))
        legs)
    [ ((7, 0, 2, 0), (77, 1, 3, 1)); ((5, 2, 1, 2), (1999, 4, 2, 0)) ];
  check "calls decided without a cone" true (!Parent_guidance.coneless > 0);
  Guidance.reset_cache ()

(* The memoized cone against a depth-first walk with a fresh [seen]
   array, for every root: on the draw, on a copy, and after [add] and
   [set_fanin] (each resets the memo and the scratch stamps must not
   leak across it). *)
let reference_cone nl root =
  let seen = Array.make (Netlist.n_nodes nl) false in
  let acc = ref [] in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      acc := v :: !acc;
      List.iter
        (fun w -> if Netlist.kind nl w <> Netlist.Dff then visit w)
        (Array.to_list (Netlist.fanouts nl).(v))
    end
  in
  visit root;
  let pos = Netlist.topo_pos nl in
  let cone = Array.of_list !acc in
  Array.sort (fun a b -> compare pos.(a) pos.(b)) cone;
  cone

let check_cones label nl =
  for r = 0 to Netlist.n_nodes nl - 1 do
    if Netlist.fanout_cone nl r <> reference_cone nl r then
      Alcotest.failf "%s: cone of %d differs" label r
  done

let test_fanout_cone_matches_reference () =
  List.iter
    (fun ((seed, _, _, _) as d) ->
      let u, _, _, _ = draw d in
      let label = Printf.sprintf "draw %d" seed in
      check_cones label u;
      let c = Netlist.copy u in
      check_cones (label ^ " copy") c;
      check_cones label u;
      (* A new gate over two existing nodes, observed. *)
      let n = Netlist.n_nodes u in
      let g = Netlist.add u Netlist.And [| n / 3; n / 2 |] in
      ignore (Netlist.add u Netlist.Po [| g |]);
      check_cones (label ^ " after add") u;
      (* Rewire the first pin of the last combinational gate before [g]
         to an earlier node: the netlist stays acyclic. *)
      let gate = ref (-1) in
      for v = 0 to n - 1 do
        match Netlist.kind u v with
        | Netlist.Pi | Netlist.Po | Netlist.Dff | Netlist.Const0
        | Netlist.Const1 -> ()
        | _ -> gate := v
      done;
      Netlist.set_fanin u !gate 0 (!gate / 2);
      check_cones (label ^ " after set_fanin") u;
      check_cones (label ^ " copy after edits") c)
    [ (7, 0, 1, 0); (77, 1, 2, 1); (777, 2, 3, 2); (5, 3, 2, 0);
      (1999, 4, 1, 2) ]

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
          Alcotest.test_case "search = parent search" `Quick
            test_podem_matches_parent;
          Alcotest.test_case "seeded source order = parent" `Quick
            test_podem_seed_order;
          Alcotest.test_case "abandoned search and canary = parent" `Quick
            test_podem_abandoned_and_canary;
          Alcotest.test_case "cone marks = parent guidance" `Quick
            test_guidance_matches_parent;
          Alcotest.test_case "fanout cone = fresh walk" `Quick
            test_fanout_cone_matches_reference;
        ] );
      ( "lint_saturation",
        [
          Alcotest.test_case "L009/L010 helpers" `Quick
            test_lint_saturation_helpers;
        ] );
    ]
