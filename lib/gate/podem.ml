type effort = {
  mutable decisions : int;
  mutable backtracks : int;
  mutable implications : int;
  mutable guided_cuts : int;
  mutable static_proof : bool;
}

type result = Test of (int * bool) list | Untestable | Aborted

(* Static-analysis guidance (built by [Hft_analysis.Guidance]; plain
   data here so the analysis library can sit above this one).  All node
   ids refer to the netlist the search runs on.  [g_common_required]
   are literals every detecting test must satisfy (mandatory
   assignments); [g_site_required] holds one requirement set per fault
   site — when every site's set is contradicted by the current cube, no
   completion detects and the search can cut.  The CC/CO arrays are
   SCOAP measures used purely for candidate ordering. *)
type guidance = {
  g_static_untestable : bool;
  g_common_required : (int * int) array;
  g_site_required : (int * int) array array;
  g_cc0 : int array;
  g_cc1 : int array;
  g_co : int array;
}

type provider =
  Netlist.t -> observe:int list -> faults:Fault.t list -> guidance

let x = 2

(* Debug knob for the fuzz campaign's regression canary: clearing it
   restores the pre-fix objective ladder that declared Untestable when
   the preferred propagation site's X-paths died (the seed-4246
   unsoundness), so the differential oracles can prove they would
   re-catch that bug class.  Production paths never touch it. *)
let propagation_fallbacks_enabled = ref true

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

(* Effort counters are accumulated locally during the search and
   flushed to the registry once per call, so the hot loop never touches
   the metric table. *)
let flush_effort ?(guided = false) effort result =
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.podem.runs";
    Hft_obs.Registry.incr "hft.podem.decisions" ~by:effort.decisions;
    Hft_obs.Registry.incr "hft.podem.backtracks" ~by:effort.backtracks;
    Hft_obs.Registry.incr "hft.podem.implications" ~by:effort.implications;
    if guided then begin
      Hft_obs.Registry.incr "hft.podem.guided_runs";
      Hft_obs.Registry.incr "hft.podem.guided_decisions" ~by:effort.decisions;
      Hft_obs.Registry.incr "hft.podem.guided_cuts" ~by:effort.guided_cuts;
      if effort.static_proof then
        Hft_obs.Registry.incr "hft.podem.static_untestable"
    end;
    Hft_obs.Registry.incr
      (match result with
       | Test _ -> "hft.podem.tests"
       | Untestable -> "hft.podem.untestable"
       | Aborted -> "hft.podem.aborts");
    if effort.backtracks > 0 then
      Hft_obs.Journal.record
        (Hft_obs.Journal.Backtrack
           { backtracks = effort.backtracks;
             decisions = effort.decisions;
             implications = effort.implications })
  end

(* All-X good-machine fixpoint, cached per netlist (physical equality +
   {!Netlist.version}, so structural edits between calls invalidate the
   entry): every [generate] starts from the same empty test cube, so the
   first implication is a [blit] of this baseline plus a fault-cone
   patch instead of two whole-netlist passes.  Domain-local so parallel
   ATPG shards never share (or race on) a cached [tstate] — each worker
   warms its own entry for its own workspace netlist. *)
let baseline_cache : (Netlist.t * int * Sim.tstate) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let baseline nl =
  let ver = Netlist.version nl in
  let cached = Domain.DLS.get baseline_cache in
  match
    List.find_opt (fun (nl', ver', _) -> nl' == nl && ver' = ver) cached
  with
  | Some (_, _, b) -> b
  | None ->
    let b = Sim.tcreate nl in
    Sim.teval nl b;
    let keep =
      List.filter (fun (nl', _, _) -> nl' != nl) cached
      |> List.filteri (fun i _ -> i < 3)
    in
    Domain.DLS.set baseline_cache ((nl, ver, b) :: keep);
    b

let rec generate ?(backtrack_limit = 500) ?check ?guidance nl ~faults
    ~assignable ~observe =
  let t_start = if !Hft_obs.Config.enabled then Hft_obs.Clock.now () else 0.0 in
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
    if !Hft_obs.Config.enabled then
      Hft_obs.Registry.observe "hft.podem.time"
        (Hft_obs.Clock.now () -. t_start);
    flush_effort ~guided:true effort Untestable;
    (Untestable, effort)
  | _ ->
  let gcost v want =
    match guidance with
    | Some g -> if want = 1 then g.g_cc1.(v) else g.g_cc0.(v)
    | None -> 0
  in
  let pi_val = Hashtbl.create 16 in
  let is_assignable = Array.make n false in
  List.iter (fun p -> is_assignable.(p) <- true) assignable;
  let gv = Sim.tcreate nl and fv = Sim.tcreate nl in
  let dirty = ref [] in
  let initialized = ref false in
  (* The set of D-carrying nodes (good and faulty machines both concrete
     and different) is maintained incrementally from the implication
     wavefront: has_d can only flip at nodes whose gv or fv changed, so
     the per-iteration D consumers — detection, X-path seeding, the
     D-frontier — cost O(|D|) instead of a cone scan. *)
  let is_d_arr = Array.make n false in
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
          if nd && not is_d_arr.(v) then newd := v :: !newd;
          is_d_arr.(v) <- nd)
        ch;
      d_list := !newd @ List.filter (fun v -> is_d_arr.(v)) !d_list
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
         if w >= 0 && w < n && is_assignable.(w)
            && not (Hashtbl.mem pi_val w)
         then set_pi w v)
       g.g_common_required);
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
  let heap = Sim.heap_create nl in
  let propagate_from v = List.iter (Sim.heap_push heap) (Netlist.fanout nl v) in
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
      let base = baseline nl in
      Array.blit base 0 gv 0 n;
      Array.blit base 0 fv 0 n;
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
  let observe_set = Array.make n false in
  List.iter (fun o -> observe_set.(o) <- true) observe;
  let detected () =
    List.exists (fun v -> observe_set.(v)) !d_list
  in
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
     visit order is irrelevant and the first observe hit ends the walk;
     the visited set is a stamp array reused across calls instead of a
     per-call allocation. *)
  let xseen = Array.make n 0 in
  let xstamp = ref 0 in
  let xstack = Array.make n 0 in
  let xpath_ok () =
    let blocked v = gv.(v) <> x && fv.(v) <> x && gv.(v) = fv.(v) in
    incr xstamp;
    let s = !xstamp in
    let top = ref 0 in
    let push v =
      xseen.(v) <- s;
      xstack.(!top) <- v;
      incr top
    in
    List.iter (fun v -> if xseen.(v) <> s then push v) !d_list;
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
          then push f.Fault.node
        | None -> ())
      faults;
    let reach = ref false in
    while (not !reach) && !top > 0 do
      decr top;
      let v = xstack.(!top) in
      if observe_set.(v) then reach := true
      else
        List.iter
          (fun w -> if xseen.(w) <> s && not (blocked w) then push w)
          (Netlist.fanout nl v)
    done;
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
  let pseen = Array.make n 0 in
  let pstamp = ref 0 in
  let propagation_objectives () =
    (* Frontier gates either consume a D node or host an activated pin
       fault, so enumerating D consumers beats any scan.  The stamp
       array dedups gates fed by several D inputs; the sort keeps the
       historical ascending-node-id candidate order. *)
    incr pstamp;
    let s = !pstamp in
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
    List.iter (fun d -> List.iter consider (Netlist.fanout nl d)) !d_list;
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
    incr pstamp;
    let s = !pstamp in
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
    List.iter (fun d -> List.iter consider (Netlist.fanout nl d)) !d_list;
    List.iter
      (fun f ->
        if f.Fault.pin <> None && pin_fault_active f.Fault.node then
          consider f.Fault.node)
      faults;
    List.rev !acc
  in
  (* Backtrace an objective to an assignable PI with X value.  Failed
     (node, want) pairs are memoised per call: without this the search
     is exponential on reconvergent all-X regions (multiplier arrays
     across several time frames). *)
  let backtrace node want =
    let dead = Hashtbl.create 64 in
    let rec go node want =
      if Hashtbl.mem dead (node, want) then None
      else
        let result =
          match Netlist.kind nl node with
          | Netlist.Pi | Netlist.Dff ->
            (* DFFs appear here under the scan view, where flip-flop
               state is a free (pseudo-primary-input) decision. *)
            if is_assignable.(node) && not (Hashtbl.mem pi_val node) then
              Some (node, want)
            else None
          | Netlist.Const0 | Netlist.Const1 -> None
          | k ->
            let fi = Netlist.fanin nl node in
            let want' = if inverts k then 1 - want else want in
            (* Choose an X input; try them in order until one
               backtraces.  Under guidance the order is easiest-to-set
               first (SCOAP CC for the wanted value), otherwise the
               historical pin order. *)
            let order =
              let idxs = List.init (Array.length fi) Fun.id in
              match guidance with
              | None -> idxs
              | Some _ ->
                List.stable_sort
                  (fun i j ->
                    compare (gcost fi.(i) want') (gcost fi.(j) want'))
                  idxs
            in
            let rec try_inputs = function
              | [] -> None
              | idx :: rest ->
                if gv.(fi.(idx)) = x then
                  match go fi.(idx) want' with
                  | Some r -> Some r
                  | None -> try_inputs rest
                else try_inputs rest
            in
            try_inputs order
        in
        if result = None then Hashtbl.replace dead (node, want) ();
        result
    in
    go node want
  in
  (* Decision stack: (pi, value, tried_both). *)
  let stack = ref [] in
  let rec backtrack () =
    effort.backtracks <- effort.backtracks + 1;
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
             (match backtrace node want with
              | None -> decide rest
              | Some (pi, v) ->
                effort.decisions <- effort.decisions + 1;
                set_pi pi v;
                stack := (pi, v, false) :: !stack;
                false)
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
  if !Hft_obs.Config.enabled then
    Hft_obs.Registry.observe "hft.podem.time"
      (Hft_obs.Clock.now () -. t_start);
  flush_effort ~guided:(guidance <> None) effort outcome;
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

let generate_comb ?backtrack_limit nl ~fault =
  generate ?backtrack_limit nl ~faults:[ fault ] ~assignable:(Netlist.pis nl)
    ~observe:(Netlist.pos nl)

let check nl ~faults ~assignment ~observe =
  let n = Netlist.n_nodes nl in
  let gv = Sim.tcreate nl and fv = Sim.tcreate nl in
  Array.fill gv 0 n x;
  Array.fill fv 0 n x;
  List.iter
    (fun (p, b) ->
      let v = if b then 1 else 0 in
      gv.(p) <- v;
      fv.(p) <- v)
    assignment;
  Sim.teval nl gv;
  Sim.teval ~faults nl fv;
  List.exists (fun o -> gv.(o) <> x && fv.(o) <> x && gv.(o) <> fv.(o)) observe
