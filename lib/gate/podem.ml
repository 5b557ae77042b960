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

(* Candidate order by (cost, node), lexicographic. *)
let by_cost ca a cb b =
  match Int.compare ca cb with 0 -> Int.compare a b | c -> c

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
       | Aborted -> "hft.podem.aborts")
  end

(* Search workspace, one per netlist (physical equality +
   {!Netlist.version}, so structural edits between calls invalidate it)
   and domain, so parallel ATPG shards never share (or race on) one —
   each worker warms its own for its own workspace netlist.  It holds
   the all-X good-machine fixpoint (every [generate] starts from the
   same empty test cube, so the first implication is a [blit] of it plus
   a fault-cone patch instead of two whole-netlist passes) and every
   per-node array a search needs, the test cube, the implication's
   changed nodes and the D-carrying set included, so a call allocates
   nothing netlist-sized (the last two grow to the most a search has
   needed).  Membership marks are stamps drawn from [w_stamp]: nothing
   is cleared between calls, and a search abandoned by an exception
   leaves nothing a later stamp can match. *)
type workspace = {
  w_nl : Netlist.t;
  w_version : int;
  w_base : Sim.tstate;
  w_gv : Sim.tstate;
  w_fv : Sim.tstate;
  w_heap : Sim.heap;
  w_assignable : int array;
  w_observe : int array;
  w_cube : int array;  (* source in the test cube: the call's stamp *)
  w_cube_val : int array;  (* its value, read only while [w_cube] matches *)
  w_fcone : int array;  (* fault sites and their fanout cone *)
  w_d : int array;  (* D-carrying nodes: the call's stamp *)
  mutable w_dlist : int array;  (* the same nodes, in [d_list] order *)
  mutable w_changed : int array;  (* an implication's changes, in order *)
  w_xseen : int array;
  w_xstack : int array;
  w_xparent : int array;  (* X-path DFS parent, -1 at a root *)
  w_witness : int array;  (* last X-path found, observe node first *)
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
        w_assignable = marks (); w_observe = marks (); w_cube = marks ();
        w_cube_val = marks (); w_fcone = marks (); w_d = marks ();
        w_dlist = Array.make 16 0; w_changed = Array.make 16 0;
        w_xseen = marks (); w_xstack = marks (); w_xparent = marks ();
        w_witness = marks (); w_pseen = marks ();
        w_dead = Array.make (2 * n) 0; w_stamp = 0 }
    in
    let keep =
      List.filter (fun w -> w.w_nl != nl) cached
      |> List.filteri (fun i _ -> i < 3)
    in
    Domain.DLS.set workspaces (w :: keep);
    w

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
  let ws = workspace nl in
  let call = fresh ws in
  let kinds = Netlist.raw_kinds nl and fanins = Netlist.raw_fanins nl in
  let fanouts = Netlist.fanouts nl in
  List.iter (fun p -> ws.w_assignable.(p) <- call) assignable;
  let is_assignable p = ws.w_assignable.(p) = call in
  (* The test cube: a source is assigned when its [cube] slot holds
     this call's stamp. *)
  let cube = ws.w_cube and cube_val = ws.w_cube_val in
  let assigned p = cube.(p) = call in
  let gv = ws.w_gv and fv = ws.w_fv in
  let dirty = ref [] in
  let initialized = ref false in
  (* The set of D-carrying nodes (good and faulty machines both concrete
     and different) is maintained incrementally from the implication
     wavefront: has_d can only flip at nodes whose gv or fv changed, so
     the per-iteration D consumers — detection, X-path seeding, the
     D-frontier — cost O(|D|) instead of a cone scan.  [d_list] is
     [w_dlist.(0 .. !d_len - 1)]: after each implication, the nodes that
     newly carry a D in the order of their last change, then the
     earlier members that still carry one, in their order.  The order is
     part of the search: [propagation_fallbacks] offers candidates in
     it. *)
  let is_d v = ws.w_d.(v) = call in
  let d_len = ref 0 in
  (* The change log and the D-list start small and grow when full: an
     implication's changes and a search's D-set mostly stay far below
     the netlist's size. *)
  let n_changed = ref 0 in
  let note_changed v =
    if !n_changed = Array.length ws.w_changed then
      ws.w_changed <- Array.append ws.w_changed ws.w_changed;
    ws.w_changed.(!n_changed) <- v;
    incr n_changed
  in
  let has_d v = gv.(v) <> x && fv.(v) <> x && gv.(v) <> fv.(v) in
  let update_d () =
    let ch = ws.w_changed and m = !n_changed in
    n_changed := 0;
    (* Latest change first; the new members gather at the top of [ch],
       above the entries still to read, oldest last change first. *)
    let top = ref m in
    for i = m - 1 downto 0 do
      let v = ch.(i) in
      let nd = has_d v in
      if nd && not (is_d v) then begin
        decr top;
        ch.(!top) <- v
      end;
      ws.w_d.(v) <- (if nd then call else 0)
    done;
    let dlist = ws.w_dlist and kept = ref 0 in
    for i = 0 to !d_len - 1 do
      let v = dlist.(i) in
      if is_d v then begin
        dlist.(!kept) <- v;
        incr kept
      end
    done;
    let added = m - !top in
    if added + !kept > Array.length dlist then
      ws.w_dlist <- Array.append dlist (Array.make (added + !kept) 0);
    let dlist = ws.w_dlist in
    Array.blit dlist 0 dlist added !kept;
    Array.blit ch !top dlist 0 added;
    d_len := added + !kept
  in
  let exists_d f =
    let dlist = ws.w_dlist in
    let rec go i = i < !d_len && (f dlist.(i) || go (i + 1)) in
    go 0
  in
  let iter_d f =
    let dlist = ws.w_dlist in
    for i = 0 to !d_len - 1 do
      f dlist.(i)
    done
  in
  let set_pi p v =
    cube.(p) <- call;
    cube_val.(p) <- v;
    dirty := p :: !dirty
  in
  let unset_pi p =
    cube.(p) <- 0;
    dirty := p :: !dirty
  in
  (* Mandatory assignments: literals every detecting test must satisfy
     (dominator side inputs at non-controlling values, SOCRATES style).
     They are seeded outside the decision stack, so exhausting the
     remaining decisions still proves untestability — no detecting test
     violates a mandatory literal. *)
  let seeded = ref [] in
  (match guidance with
   | None -> ()
   | Some g ->
     Array.iter
       (fun (w, v) ->
         if w >= 0 && w < n && is_assignable w && not (assigned w) then begin
           set_pi w v;
           seeded := w :: !seeded
         end)
       g.g_common_required);
  (* The first implication touches the seeded sources in the order a
     16-bucket [Hashtbl] holding them iterates in.  The order is part
     of the search: it reaches [d_list] (a stem-faulted source carries
     a D) and through it the order of [propagation_fallbacks], so the
     pinned efforts and tests depend on it.  A lone literal needs no
     table. *)
  let seeded_in_order () =
    match !seeded with
    | [] | [ _ ] -> !seeded
    | several ->
      let h = Hashtbl.create 16 and order = ref [] in
      List.iter (fun p -> Hashtbl.replace h p ()) (List.rev several);
      Hashtbl.iter (fun p () -> order := p :: !order) h;
      List.rev !order
  in
  (* The faulty machine differs from the good one only inside the fault
     sites' combinational fanout cone: a non-[Dff] node outside it has
     every fanin outside it, and every source starts with equal good
     and faulty values.  So the sites evaluate with fault probes, the
     rest of the cone with the fault-free evaluator, and every other
     node copies its good value.  A site that is not a node is left to
     fail where the search first reads it. *)
  let fcone = ws.w_fcone in
  let in_cone = fresh ws in
  List.iter
    (fun f ->
      let v = f.Fault.node in
      if v >= 0 && v < n then Netlist.mark_cone nl fcone in_cone v)
    faults;
  let site = fresh ws in
  List.iter
    (fun f ->
      let v = f.Fault.node in
      if v >= 0 && v < n then fcone.(v) <- site)
    faults;
  (* Event-driven implication over the topological queue.  The
     combinational fixpoint is a pure function of the sources, so after
     a decision or backtrack only nodes downstream of an actual value
     change need re-evaluation: each changed node pushes its consumers,
     the queue pops in topological order (so a node is evaluated once,
     after its fanins settled), and an evaluation that reproduces the
     old value stops the wavefront.  Reproduces a full pass bit for
     bit. *)
  let feval = Sim.teval_fn ~faults nl in
  let heap = ws.w_heap in
  let propagate_from v =
    let out = fanouts.(v) in
    for i = 0 to Array.length out - 1 do
      Sim.heap_push heap out.(i)
    done
  in
  let drain () =
    while not (Sim.heap_is_empty heap) do
      let v = Sim.heap_pop heap in
      let og = gv.(v) and ofv = fv.(v) in
      Sim.teval_node kinds fanins gv v;
      let m = fcone.(v) in
      if m = in_cone then Sim.teval_node kinds fanins fv v
      else if m = site then feval fv v
      else fv.(v) <- gv.(v);
      if gv.(v) <> og || fv.(v) <> ofv then begin
        note_changed v;
        propagate_from v
      end
    done
  in
  let touch_source p v =
    let og = gv.(p) and ofv = fv.(p) in
    gv.(p) <- v;
    fv.(p) <- v;
    (* A stem fault on a source keeps it forced. *)
    if fcone.(p) = site then feval fv p;
    if gv.(p) <> og || fv.(p) <> ofv then begin
      note_changed p;
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
      n_changed := 0;
      Sim.heap_reset heap;
      (* The cube holds only the seeded literals here. *)
      List.iter (fun p -> touch_source p cube_val.(p)) (seeded_in_order ());
      (* Patch the faulty machine at the injection sites; the wavefront
         carries the difference forward. *)
      List.iter
        (fun f ->
          let v = f.Fault.node in
          let ofv = fv.(v) in
          feval fv v;
          if fv.(v) <> ofv then begin
            note_changed v;
            propagate_from v
          end)
        faults;
      drain ();
      update_d ()
    end
    else
      match List.sort_uniq Int.compare !dirty with
      | [] -> ()
      | ds ->
        dirty := [];
        n_changed := 0;
        Sim.heap_reset heap;
        List.iter
          (fun p -> touch_source p (if assigned p then cube_val.(p) else x))
          ds;
        drain ();
        update_d ()
  in
  List.iter (fun o -> ws.w_observe.(o) <- call) observe;
  let observed v = ws.w_observe.(v) = call in
  let detected () = exists_d observed in
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
  (* A gate hosting an activated pin fault: the fault's difference
     originates there even before any node carries a D. *)
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
  (* X-path: from any D-carrying node, can a difference still reach an
     observe node through not-yet-blocked nodes?  Pure reachability, so
     visit order is irrelevant and the first observe hit ends the walk.
     The walk records DFS parents and keeps the path it found as a
     witness, observe node first.  A later query of the same call takes
     the witness instead of walking when its root is still a start of
     the walk (it carries a D, or is an activated, unblocked pin-fault
     consumer) and no later node on it is blocked: the path then still
     reaches an observe node, so the answer is the walk's.  The witness
     lives for one call, whose netlist and observe set it was found on. *)
  let xseen = ws.w_xseen and xstack = ws.w_xstack in
  let xparent = ws.w_xparent and witness = ws.w_witness in
  let witness_len = ref 0 in
  let blocked v = gv.(v) <> x && fv.(v) <> x && gv.(v) = fv.(v) in
  let witness_holds () =
    let len = !witness_len in
    len > 0
    && (let root = witness.(len - 1) in
        is_d root || (pin_fault_active root && not (blocked root)))
    &&
    let rec open_from i =
      i < 0 || ((not (blocked witness.(i))) && open_from (i - 1))
    in
    open_from (len - 2)
  in
  let xpath_ok () =
    witness_holds ()
    ||
    let s = fresh ws in
    let top = ref 0 in
    let push v parent =
      xseen.(v) <- s;
      xparent.(v) <- parent;
      xstack.(!top) <- v;
      incr top
    in
    iter_d (fun v -> if xseen.(v) <> s then push v (-1));
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
          then push f.Fault.node (-1)
        | None -> ())
      faults;
    let reached = ref (-1) in
    while !reached < 0 && !top > 0 do
      decr top;
      let v = xstack.(!top) in
      if observed v then reached := v
      else begin
        let out = fanouts.(v) in
        for i = 0 to Array.length out - 1 do
          let w = out.(i) in
          if xseen.(w) <> s && not (blocked w) then push w v
        done
      end
    done;
    !reached >= 0
    && begin
      let v = ref !reached and len = ref 0 in
      while !v >= 0 do
        witness.(!len) <- !v;
        incr len;
        v := xparent.(!v)
      done;
      witness_len := !len;
      true
    end
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
        (fun (a, wa) (b, wb) -> by_cost (gcost a wa) a (gcost b wb) b)
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
        match kinds.(v) with
        | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 -> ()
        | k ->
          if gv.(v) = x || fv.(v) = x then begin
            (* Set an X input to the non-controlling value (or, for
               kinds without one, a heuristic value — implication sorts
               it out). *)
            let v_obj =
              match controlling k with Some c -> 1 - c | None -> 1
            in
            let inputs = fanins.(v) in
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
    iter_d (fun d -> Array.iter consider fanouts.(d));
    List.iter
      (fun f ->
        if f.Fault.pin <> None && pin_fault_active f.Fault.node then
          consider f.Fault.node)
      faults;
    (match guidance with
     | None -> List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc
     | Some g ->
       (* Best-observability frontier gate first (SCOAP CO): drive the
          difference down the path most likely to reach an observe
          node. *)
       List.sort
         (fun (a, _) (b, _) -> by_cost g.g_co.(a) a g.g_co.(b) b)
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
    let s = fresh ws in
    let acc = ref [] in
    let consider v =
      if pseen.(v) <> s then begin
        pseen.(v) <- s;
        match kinds.(v) with
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
              fanins.(v)
      end
    in
    iter_d (fun d -> Array.iter consider fanouts.(d));
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
      match kinds.(node) with
      | Netlist.Pi | Netlist.Dff ->
        (* DFFs appear here under the scan view, where flip-flop state
           is a free (pseudo-primary-input) decision. *)
        is_assignable node
        && (not (assigned node))
        && begin
          bt_pi := node;
          bt_val := want;
          true
        end
      | Netlist.Const0 | Netlist.Const1 -> false
      | k ->
        let fi = fanins.(node) in
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
         (* The X-path answer holds for the whole iteration: nothing
            below changes the search state before the fallback check. *)
         let active = activated () in
         let xpath = active && xpath_ok () in
         let objectives =
           if not active then activation_objectives ()
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
             if xpath then propagation_objectives () @ acts else acts
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
               || (not xpath) || decide (propagation_fallbacks ()))
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
      (* Every cube member is assignable: seeding and backtrace check. *)
      let assignment =
        List.filter_map
          (fun p -> if assigned p then Some (p, cube_val.(p) = 1) else None)
          assignable
        |> List.sort_uniq compare
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
