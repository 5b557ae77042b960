type stats = {
  detected : int;
  untestable : int;
  aborted : int;
  total : int;
  decisions : int;
  backtracks : int;
  implications : int;
  frames_used : int;
  rows : Hft_obs.Ledger.row list;
}

type strategy = Naive | Drop

type test = {
  t_frames : int;
  t_pi_vectors : bool array array;
  t_scan_state : bool array;
  t_detects : Fault.t list;
}

let fault_coverage s =
  if s.total = 0 then 1.0 else float_of_int s.detected /. float_of_int s.total

(* Where an unrolled assignable PI comes from, for reconstructing tests
   in terms of the original circuit. *)
type origin =
  | Orig_pi of int * int  (* original PI node, frame *)
  | Strapped_pi of int    (* original PI node, all frames share one copy *)
  | Scan_state of int     (* scanned DFF node, frame-0 load *)

type unrolled = {
  u_net : Netlist.t;
  u_assignable : int list;
  u_observe : int list;
  u_map_fault : Fault.t -> Fault.t list;
  u_origin : (int, origin) Hashtbl.t;
  u_frames : int;
}

let unroll_full ?assignable_pis ?(strapped = []) nl ~frames ~scanned =
  if frames < 1 then invalid_arg "Seq_atpg.unroll: frames < 1";
  (* Membership probes are per-node in the copy loop: precompute hash
     sets instead of [List.mem] scans. *)
  let pi_allowed =
    match assignable_pis with
    | None -> fun _ -> true
    | Some l ->
      let h = Hashtbl.create (List.length l + 1) in
      List.iter (fun v -> Hashtbl.replace h v ()) l;
      fun v -> Hashtbl.mem h v
  in
  let is_strapped =
    let h = Hashtbl.create (List.length strapped + 1) in
    List.iter (fun v -> Hashtbl.replace h v ()) strapped;
    fun v -> Hashtbl.mem h v
  in
  let strap_copy = Hashtbl.create 4 in
  let n = Netlist.n_nodes nl in
  let u = Netlist.create ~name:(Netlist.circuit_name nl ^ "_unrolled") () in
  (* node_map.(t).(v) = copy of node v in frame t *)
  let node_map = Array.make_matrix frames n (-1) in
  let assignable = ref [] in
  let observe = ref [] in
  let origin = Hashtbl.create 16 in
  let is_scanned = Array.make n false in
  List.iter (fun d -> is_scanned.(d) <- true) scanned;
  let order = Netlist.topo_order nl in
  for t = 0 to frames - 1 do
    (* Sources first: Dffs. *)
    Array.iter
      (fun v ->
        match Netlist.kind nl v with
        | Netlist.Dff ->
          let name = Printf.sprintf "%s@%d" (Netlist.node_name nl v) t in
          if t = 0 then begin
            let pi = Netlist.add u ~name Netlist.Pi [||] in
            node_map.(0).(v) <- pi;
            if is_scanned.(v) then begin
              assignable := pi :: !assignable;
              Hashtbl.replace origin pi (Scan_state v)
            end
            (* unscanned frame-0 state: PI left unassignable = X *)
          end
          else begin
            (* Functional edge: this frame's state is last frame's D. *)
            let d_src = (Netlist.fanin nl v).(0) in
            let prev = node_map.(t - 1).(d_src) in
            node_map.(t).(v) <- Netlist.add u ~name Netlist.Buf [| prev |]
          end
        | _ -> ())
      order;
    (* Combinational copies. *)
    Array.iter
      (fun v ->
        match Netlist.kind nl v with
        | Netlist.Dff -> ()
        | Netlist.Pi ->
          if is_strapped v then begin
            let pi =
              match Hashtbl.find_opt strap_copy v with
              | Some pi -> pi
              | None ->
                let pi =
                  Netlist.add u ~name:(Netlist.node_name nl v) Netlist.Pi [||]
                in
                Hashtbl.replace strap_copy v pi;
                if pi_allowed v then begin
                  assignable := pi :: !assignable;
                  Hashtbl.replace origin pi (Strapped_pi v)
                end;
                pi
            in
            node_map.(t).(v) <- pi
          end
          else begin
            let name = Printf.sprintf "%s@%d" (Netlist.node_name nl v) t in
            let pi = Netlist.add u ~name Netlist.Pi [||] in
            node_map.(t).(v) <- pi;
            if pi_allowed v then begin
              assignable := pi :: !assignable;
              Hashtbl.replace origin pi (Orig_pi (v, t))
            end
          end
        | k ->
          let fi = Array.map (fun f -> node_map.(t).(f)) (Netlist.fanin nl v) in
          Array.iter (fun f -> assert (f >= 0)) fi;
          let name = Printf.sprintf "%s@%d" (Netlist.node_name nl v) t in
          let id = Netlist.add u ~name k fi in
          node_map.(t).(v) <- id;
          if k = Netlist.Po then observe := id :: !observe)
      order
  done;
  (* Scan-out observation: final-frame D input of scanned DFFs. *)
  List.iter
    (fun v ->
      if is_scanned.(v) then begin
        let d_src = (Netlist.fanin nl v).(0) in
        let po =
          Netlist.add u
            ~name:(Printf.sprintf "scanout_%s" (Netlist.node_name nl v))
            Netlist.Po
            [| node_map.(frames - 1).(d_src) |]
        in
        observe := po :: !observe
      end)
    (Netlist.dffs nl);
  let map_fault f =
    List.init frames (fun t ->
        { f with Fault.node = node_map.(t).(f.Fault.node) })
    |> List.filter (fun f' -> f'.Fault.node >= 0)
  in
  Hft_obs.Registry.incr "hft.seq_atpg.frames_expanded" ~by:frames;
  Hft_obs.Registry.incr "hft.seq_atpg.unrolls";
  {
    u_net = u;
    u_assignable = List.rev !assignable;
    u_observe = List.rev !observe;
    u_map_fault = map_fault;
    u_origin = origin;
    u_frames = frames;
  }

let unroll ?assignable_pis ?strapped nl ~frames ~scanned =
  let u = unroll_full ?assignable_pis ?strapped nl ~frames ~scanned in
  (u.u_net, u.u_assignable, u.u_observe, u.u_map_fault)

(* Rebuild a test in original-circuit terms from a PODEM assignment over
   unrolled PIs.  Unassigned inputs (X in the test cube) are filled with
   0 — any concrete fill keeps the test valid for the targeted fault. *)
let reconstruct_test nl ~scanned u assignment ~detects =
  let pis = Netlist.pis nl in
  let pi_col = Hashtbl.create (List.length pis) in
  List.iteri (fun i v -> Hashtbl.replace pi_col v i) pis;
  let scan_col = Hashtbl.create (List.length scanned + 1) in
  List.iteri (fun i v -> Hashtbl.replace scan_col v i) scanned;
  let vectors = Array.make_matrix u.u_frames (List.length pis) false in
  let state = Array.make (List.length scanned) false in
  List.iter
    (fun (upi, b) ->
      match Hashtbl.find_opt u.u_origin upi with
      | Some (Orig_pi (v, t)) -> vectors.(t).(Hashtbl.find pi_col v) <- b
      | Some (Strapped_pi v) ->
        let c = Hashtbl.find pi_col v in
        Array.iter (fun row -> row.(c) <- b) vectors
      | Some (Scan_state d) -> state.(Hashtbl.find scan_col d) <- b
      | None -> ())
    assignment;
  {
    t_frames = u.u_frames;
    t_pi_vectors = vectors;
    t_scan_state = state;
    t_detects = detects;
  }

(* Confirm which of [faults] the reconstructed tests detect.  Each test
   is applied on the unrolled circuit — frame-0 unscanned state held at
   0, the concrete counterpart of the X that PODEM guaranteed detection
   under — with the cone-limited group check, and only against the
   pending faults it was proven to detect during generation
   ([t_detects]), so the cost is a handful of small cone replays rather
   than whole-netlist sequential passes.  Detected faults are dropped
   between tests. *)
let replay ?assignable_pis ?strapped nl ~scanned ~tests faults =
  let pis = Netlist.pis nl in
  let pi_col = Hashtbl.create (List.length pis) in
  List.iteri (fun i v -> Hashtbl.replace pi_col v i) pis;
  let scan_col = Hashtbl.create (List.length scanned + 1) in
  List.iteri (fun i v -> Hashtbl.replace scan_col v i) scanned;
  let by_frames = Hashtbl.create 4 in
  List.iter
    (fun t ->
      let prev = try Hashtbl.find by_frames t.t_frames with Not_found -> [] in
      Hashtbl.replace by_frames t.t_frames (t :: prev))
    tests;
  let frame_counts =
    Hashtbl.fold (fun k _ acc -> k :: acc) by_frames [] |> List.sort compare
  in
  (* The pending faults are indexed once by position (every copy of a
     duplicated fault has its own); a test looks up only its own
     [t_detects] among the positions still pending, and ascending
     positions are pending order. *)
  let fault_at = Array.of_list faults in
  let live = Array.make (Array.length fault_at) true in
  let n_live = ref (Array.length fault_at) in
  let index = Hashtbl.create (Array.length fault_at) in
  Array.iteri (fun i f -> Hashtbl.add index f i) fault_at;
  let detected = ref [] in
  List.iter
    (fun frames ->
      if !n_live > 0 then begin
        let u = unroll_full ?assignable_pis ?strapped nl ~frames ~scanned in
        let assignment_of t =
          List.map
            (fun upi ->
              match Hashtbl.find_opt u.u_origin upi with
              | Some (Orig_pi (v, fr)) ->
                (upi, t.t_pi_vectors.(fr).(Hashtbl.find pi_col v))
              | Some (Strapped_pi v) ->
                (upi, t.t_pi_vectors.(0).(Hashtbl.find pi_col v))
              | Some (Scan_state d) ->
                (upi, t.t_scan_state.(Hashtbl.find scan_col d))
              | None -> (upi, false))
            (Netlist.pis u.u_net)
        in
        List.iter
          (fun t ->
            match
              List.concat_map (Hashtbl.find_all index) t.t_detects
              |> List.filter (fun i -> live.(i))
              |> List.sort_uniq Int.compare
            with
            | [] -> ()
            | ps ->
              let flags =
                Fsim.detect_groups u.u_net ~assignment:(assignment_of t)
                  ~observe:u.u_observe
                  (List.map
                     (fun i -> Fsim.group u.u_net (u.u_map_fault fault_at.(i)))
                     ps)
              in
              List.iteri
                (fun k i ->
                  if flags.(k) then begin
                    live.(i) <- false;
                    decr n_live;
                    detected := fault_at.(i) :: !detected
                  end)
                ps)
          (List.rev (Hashtbl.find by_frames frames))
      end)
    frame_counts;
  (List.rev !detected, List.filteri (fun i _ -> live.(i)) faults)

(* One class's forensics while a campaign runs with observability on:
   its resolution and the costs charged to it so far. *)
type account = {
  mutable a_res : Hft_obs.Ledger.resolution;
  mutable a_fsim : int;
  mutable a_impl : int;
  mutable a_btk : int;
  mutable a_cuts : int;
}

(* Pending classes a [-j] campaign speculates per domain between two
   commit barriers.  The window trades barrier waits (every domain idles
   until the wave's slowest ladder ends, and while the commit thread
   commits) against speculation misses (ladders of classes an earlier
   commit in the same window drops).  On two domains, 2 per domain left
   the domains idle a quarter of a noscan-campaign pass; at 32 they are
   busy 0.91 of it and 2.3% of the ladders miss, and wider windows miss
   more. *)
let window_per_domain = 32

type detect =
  ?on_group_events:(int -> int -> unit) -> ?strategy:Fsim.strategy ->
  Netlist.t -> assignment:(int * bool) list -> observe:int list ->
  Fsim.group list -> bool array

let campaign ?(backtrack_limit = 200) ?(min_frames = 1) ?(max_frames = 6)
    ?(strategy = Drop) ?on_test ?(supervisor = Hft_robust.Supervisor.default)
    ?resolved ?on_resolved ?guidance ?on_par_stats ?(jobs = 1) ~view
    ~(detect : detect) nl ~faults =
  let jobs = Hft_par.clamp_jobs jobs in
  let t_start = Hft_obs.Clock.now () in
  let detected = ref 0 and untestable = ref 0 and aborted = ref 0 in
  let decisions = ref 0 and backtracks = ref 0 and implications = ref 0 in
  let frames_used = ref 0 in
  (* Work on one representative per structural equivalence class; every
     class member shares the representative's outcome exactly (identical
     faulty functions). *)
  let naive_groups () = List.map (fun f -> (f, [ f ])) faults in
  let groups =
    match strategy with
    | Naive -> naive_groups ()
    | Drop ->
      let collapse () =
        let fc = Fault_collapse.compute nl in
        Fault_collapse.partition fc faults
      in
      let p =
        match
          Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Collapse
            collapse
        with
        | Ok p -> p
        | Error _ ->
          (* Degrade to one class per fault: more PODEM calls, but the
             campaign keeps going. *)
          Hft_obs.Registry.incr "hft.robust.degraded";
          naive_groups ()
      in
      Hft_obs.Registry.incr "hft.seq_atpg.classes" ~by:(List.length p);
      p
  in
  let leaders = Array.of_list (List.map fst groups) in
  let members = Array.of_list (List.map snd groups) in
  let sizes = Array.of_list (List.map (fun (_, ms) -> List.length ms) groups) in
  let n_groups = Array.length leaders in
  (* Commit-thread workspaces, one per frame count (shared across
     faults), built from the original netlist on first use, each with
     every class's drop-check group prepared in it once — on the first
     drop pass at that frame count — so a class's charge is computed at
     most once per frame count. *)
  let unrolled =
    Array.init max_frames (fun i ->
        lazy
          (let u = view nl (i + 1) in
           ( u,
             lazy
               (Array.map (fun f -> Fsim.group u.u_net (u.u_map_fault f))
                  leaders) )))
  in
  let status = Array.make n_groups `Pending in
  let dropped = ref 0 in
  (* Forensics: one account per class, kept only while observability is
     on ([ledger] is empty otherwise, and no row is built).  The
     campaign returns them as its ledger rows, in class order. *)
  let obs = !Hft_obs.Config.enabled in
  let ledger =
    Array.init (if obs then n_groups else 0) (fun _ ->
        { a_res = Hft_obs.Ledger.Never_targeted; a_fsim = 0; a_impl = 0;
          a_btk = 0; a_cuts = 0 })
  in
  let row gi =
    let a = ledger.(gi) in
    { Hft_obs.Ledger.lr_class = gi; lr_rep = Fault.to_string nl leaders.(gi);
      lr_members = List.map (Fault.to_string nl) members.(gi);
      lr_resolution = a.a_res; lr_fsim_events = a.a_fsim;
      lr_implications = a.a_impl; lr_backtracks = a.a_btk;
      lr_guided_cuts = a.a_cuts }
  in
  let resolve gi res = if obs then ledger.(gi).a_res <- res in
  (* The tape hook ([on_resolved]) gets the ledger row of every class
     as it resolves: its charges are complete by then, since a drop
     pass charges its pending classes before resolving any and PODEM
     charges a class before its resolution. *)
  let emit_row gi =
    match on_resolved with
    | Some k when obs -> k (row gi)
    | _ -> ()
  in
  let resolve_class gi res =
    resolve gi res;
    emit_row gi
  in
  (* Generated tests are numbered in commit order, after every test a
     resumed campaign restored: each restored test is named by the row
     that committed it. *)
  let next_test = ref 0 in
  let new_test () =
    let t = !next_test in
    incr next_test;
    t
  in
  (* Resume: classes the interrupted run already resolved keep their
     recorded row, resolution and charges, and are never re-targeted,
     so a resumed campaign continues bit-identically.  Restored rows
     skip [on_resolved] — they are already on the tape. *)
  let restored = ref 0 in
  (match resolved with
   | None -> ()
   | Some lookup ->
     Array.iteri
       (fun gi f ->
         match lookup (Fault.to_string nl f) with
         | None -> ()
         | Some (row : Hft_obs.Ledger.row) ->
           (match row.lr_resolution with
            | Hft_obs.Ledger.Drop_detected _ | Hft_obs.Ledger.Podem_detected _
            | Hft_obs.Ledger.Salvaged _ -> status.(gi) <- `Detected
            | Hft_obs.Ledger.Proved_untestable _ -> status.(gi) <- `Untestable
            | Hft_obs.Ledger.Aborted _ -> status.(gi) <- `Aborted
            | Hft_obs.Ledger.Never_targeted -> ());
           if status.(gi) <> `Pending then begin
             if obs then
               ledger.(gi) <-
                 { a_res = row.lr_resolution; a_fsim = row.lr_fsim_events;
                   a_impl = row.lr_implications; a_btk = row.lr_backtracks;
                   a_cuts = row.lr_guided_cuts };
             Option.iter
               (fun t -> next_test := max !next_test (t + 1))
               (Hft_obs.Ledger.resolution_test row.lr_resolution);
             incr restored
           end)
       leaders);
  if !restored > 0 then
    Hft_obs.Registry.incr "hft.seq_atpg.restored" ~by:!restored;
  (* Fault dropping: fault-simulate each fresh test against every
     pending class with [detect] (cone limited) — three-valued for
     sequential ATPG, where unassigned sources sit at X: a sequential
     circuit's initial state is unknown, and the X-sound check
     guarantees the dropped fault is detected for any initial state,
     exactly PODEM's own criterion; two-valued and exact for full scan,
     where every source is assigned.  Returns the dropped members plus
     the dropped classes: the caller hands their rows to [on_resolved]
     only after the test itself is serialized, so a tape transaction is
     always test line first, drop rows next, committing row last. *)
  let drop_pass (u, groups) assignment self tid =
    let pending = ref [] in
    for gj = n_groups - 1 downto 0 do
      if gj <> self && status.(gj) = `Pending then pending := gj :: !pending
    done;
    match !pending with
    | [] -> ([], [])
    | pending ->
      let groups = Lazy.force groups in
      (* The pass charges its events before any of its resolutions. *)
      let evs = Array.make (if obs then List.length pending else 0) 0 in
      let flags =
        detect u.u_net
          ?on_group_events:
            (if obs then Some (fun k ev -> evs.(k) <- ev) else None)
          ~assignment ~observe:u.u_observe
          (List.map (fun gj -> groups.(gj)) pending)
      in
      if obs then
        List.iteri
          (fun k gj ->
            let a = ledger.(gj) in
            a.a_fsim <- a.a_fsim + evs.(k))
          pending;
      let drops = ref [] and dropped_classes = ref [] in
      List.iteri
        (fun k gj ->
          if flags.(k) then begin
            status.(gj) <- `Detected;
            dropped := !dropped + sizes.(gj);
            resolve gj (Hft_obs.Ledger.Drop_detected { test = tid });
            dropped_classes := gj :: !dropped_classes;
            drops := members.(gj) @ !drops
          end)
        pending;
      (!drops, List.rev !dropped_classes)
  in
  (* The whole pass is one supervision point: a pass with no pending
     class still takes its chaos draw. *)
  let safe_drop_pass ws assignment self tid =
    match
      Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim (fun () ->
          drop_pass ws assignment self tid)
    with
    | Ok r -> r
    | Error _ ->
      (* Lose the sweep, keep the test: pending classes get their own
         PODEM attempt later. *)
      Hft_obs.Registry.incr "hft.robust.degraded";
      ([], [])
  in
  (* One PODEM invocation under the supervisor's retry ladder (budget
     escalation + per-attempt deadlines). *)
  let podem_call u f =
    let faults = u.u_map_fault f in
    let gd =
      Option.map (fun provide -> provide u.u_net ~observe:u.u_observe ~faults)
        guidance
    in
    Hft_robust.Supervisor.ladder supervisor ~site:Hft_robust.Chaos.Podem
      ~budget:backtrack_limit (fun ~budget ~check ->
        Podem.generate ~backtrack_limit:budget ?check ?guidance:gd u.u_net
          ~faults ~assignable:u.u_assignable ~observe:u.u_observe)
  in
  (* Graceful degradation once the PODEM ladder is exhausted: a
     deterministic burst of random patterns over the unrolled inputs,
     checked with [detect] (X-sound where sources stay unassigned — a
     salvaged detection is as real as a PODEM one).  The salvage seed
     depends only on the class index and frame count, so an
     interrupted-and-resumed campaign salvages identically.  The class's
     drop-check group is prepared afresh: a worker must not force the
     commit thread's lazy tables. *)
  let salvage_search u gi =
    let try_salvage () =
      let group = Fsim.group u.u_net (u.u_map_fault leaders.(gi)) in
      let rng = Hft_util.Rng.create (0x5a17a6e + (7919 * gi) + u.u_frames) in
      let found = ref None in
      let tries = ref 0 in
      while !found = None && !tries < Hft_robust.Supervisor.salvage_patterns do
        incr tries;
        let assignment =
          List.map (fun pi -> (pi, Hft_util.Rng.bool rng)) u.u_assignable
        in
        let flags =
          detect u.u_net ~assignment ~observe:u.u_observe [ group ]
        in
        if flags.(0) then found := Some (assignment, !tries)
      done;
      !found
    in
    match
      Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim try_salvage
    with
    | Ok r -> r
    | Error _ -> None
  in
  (* One class's frame ladder: a supervised PODEM attempt per frame
     count from [min_frames] up to a test, a failure or [max_frames],
     and the salvage search after a failure (a miss resolves the class
     aborted-with-reason).  It reads nothing a commit writes, so a
     worker domain can run it ahead of the commit order.  [view_at
     frames] is the workspace: the commit thread's, or a worker's own. *)
  let run_ladder view_at gi =
    let rec go frames =
      let u = view_at frames in
      match podem_call u leaders.(gi) with
      | Ok (Podem.Test _, _) as o -> [ (frames, o) ]
      | Ok _ as o when frames >= max_frames -> [ (frames, o) ]
      | Ok _ as o -> (frames, o) :: go (frames + 1)
      | Error fail ->
        (* The failure is not frame-related (deadline, injection,
           exception): degrade at this frame count instead of burning
           more frames. *)
        [ (frames, Error (fail, salvage_search u gi)) ]
    in
    go (min min_frames max_frames)
  in
  let commit_view frames = fst (Lazy.force unrolled.(frames - 1)) in
  (* A fresh test of class [gi], numbered in commit order: it sweeps the
     pending classes first ([drop]), so its recorded detections cover
     the class and every class it swept, and the tape transaction is
     the test line, the drop rows, then [gi]'s row ([resolution tid]). *)
  let commit_test ((u, _) as ws) gi assignment ~drop resolution =
    let tid = new_test () in
    let drops, dropped_classes =
      if drop then safe_drop_pass ws assignment gi tid else ([], [])
    in
    (match on_test with
     | Some k -> k u assignment ~detects:(members.(gi) @ drops)
     | None -> ());
    List.iter emit_row dropped_classes;
    resolve_class gi (resolution tid);
    `Detected
  in
  (* Charge a ladder's effort to the class and commit its resolution: a
     PODEM test, a salvage, or the last rung's verdict.  Every rung
     forces the commit thread's view, so view construction counts the
     same at any jobs count. *)
  let commit gi ladder =
    let cls_backtracks = ref 0 in
    let rec go = function
      | [] -> assert false
      | (frames, outcome) :: rest ->
        let ws = Lazy.force unrolled.(frames - 1) in
        (match outcome with
         | Error (_, Some (assignment, patterns)) ->
           Hft_obs.Registry.incr "hft.robust.salvaged";
           commit_test ws gi assignment ~drop:true (fun test ->
               Hft_obs.Ledger.Salvaged { test; patterns })
         | Error (fail, None) ->
           let budget =
             Hft_robust.Supervisor.final_budget ~budget:backtrack_limit
           in
           Hft_obs.Registry.incr "hft.robust.degraded";
           resolve_class gi
             (Hft_obs.Ledger.Aborted
                { budget; frames;
                  reason = Some (Hft_robust.Failure.to_string fail) });
           `Aborted
         | Ok (result, effort) ->
           decisions := !decisions + effort.Podem.decisions;
           backtracks := !backtracks + effort.Podem.backtracks;
           implications := !implications + effort.Podem.implications;
           cls_backtracks := !cls_backtracks + effort.Podem.backtracks;
           if obs then begin
             let a = ledger.(gi) in
             a.a_impl <- a.a_impl + effort.Podem.implications;
             a.a_btk <- a.a_btk + effort.Podem.backtracks;
             a.a_cuts <- a.a_cuts + effort.Podem.guided_cuts
           end;
           if frames > !frames_used then frames_used := frames;
           (match (result, rest) with
            | Podem.Test assignment, _ ->
              commit_test ws gi assignment ~drop:(strategy = Drop)
                (fun test ->
                  Hft_obs.Ledger.Podem_detected
                    { test; backtracks = !cls_backtracks; frames })
            | (Podem.Untestable | Podem.Aborted), _ :: _ ->
              (* May become testable with more frames. *)
              go rest
            | Podem.Untestable, [] ->
              resolve_class gi (Hft_obs.Ledger.Proved_untestable { frames });
              `Untestable
            | Podem.Aborted, [] ->
              resolve_class gi
                (Hft_obs.Ledger.Aborted
                   { budget = backtrack_limit; frames; reason = None });
              `Aborted))
    in
    status.(gi) <- go ladder
  in
  (* Parallel path: windows of [window_per_domain] × jobs pending
     classes run their ladders across the pool, each on the worker's own
     {!Netlist.copy} of the original with a per-frame cache of views
     built from that copy (node ids are positions, so faults and
     assignments transfer verbatim), every observability write captured
     onto one tape per class; view construction is suppressed outright —
     it has no sequential counterpart.  The window is then committed
     strictly in class order: a still-pending class replays its tape and
     commits its ladder (hit), a class an earlier commit dropped
     discards both (miss), and a dead shard's class runs its ladder
     inline (one [hft.robust.degraded] count per shard failure).
     Exactly one bucket per dispatched task; results and telemetry are
     those of the sequential walk, whatever the window size. *)
  let run_parallel pool =
    let stats = Hft_par.Stats.collector ~jobs in
    let worker_view (src, cache) frames =
      match cache.(frames - 1) with
      | Some u -> u
      | None ->
        let u = Hft_obs.Capture.suppress (fun () -> view src frames) in
        cache.(frames - 1) <- Some u;
        u
    in
    Hft_par.Pool.parallel pool ~stats
      ~init:(fun () -> (Netlist.copy nl, Array.make max_frames None))
    @@ fun section ->
    let win = window_per_domain * jobs in
    let cursor = ref 0 in
    while !cursor < n_groups do
      let picked = ref [] in
      let count = ref 0 in
      let i = ref !cursor in
      while !count < win && !i < n_groups do
        if status.(!i) = `Pending then begin
          picked := !i :: !picked;
          incr count
        end;
        incr i
      done;
      let window = Array.of_list (List.rev !picked) in
      let ladders, fails =
        if Array.length window = 0 then ([||], [])
        else
          section.run ~n:(Array.length window) ~f:(fun ws k ->
              let gi = window.(k) in
              Hft_obs.Capture.record (fun () ->
                  run_ladder (worker_view ws) gi))
      in
      List.iter
        (fun _fail -> Hft_obs.Registry.incr "hft.robust.degraded")
        fails;
      Array.iteri
        (fun k gi ->
          if status.(gi) <> `Pending then Hft_par.Stats.note_miss stats
          else
            match ladders.(k) with
            | Some (ladder, tape) ->
              Hft_par.Stats.note_hit stats;
              Hft_obs.Capture.replay tape;
              commit gi ladder
            | None ->
              Hft_par.Stats.note_inline stats;
              commit gi (run_ladder commit_view gi))
        window;
      cursor := !i
    done;
    Hft_par.Stats.finish stats
  in
  let par =
    if jobs > 1 && n_groups > 1 then run_parallel (Hft_par.Pool.get ~jobs)
    else begin
      Array.iteri
        (fun gi _ ->
          if status.(gi) = `Pending then commit gi (run_ladder commit_view gi))
        leaders;
      (* The degenerate summary, so every consumer sees a utilization
         field. *)
      Hft_par.Stats.sequential
        ~wall_ns:(int_of_float ((Hft_obs.Clock.now () -. t_start) *. 1e9))
    end
  in
  Option.iter (fun k -> k par) on_par_stats;
  Array.iteri
    (fun gi st ->
      match st with
      | `Detected -> detected := !detected + sizes.(gi)
      | `Untestable -> untestable := !untestable + sizes.(gi)
      | `Aborted -> aborted := !aborted + sizes.(gi)
      | `Pending -> assert false)
    status;
  Hft_obs.Registry.incr "hft.seq_atpg.faults" ~by:(List.length faults);
  Hft_obs.Registry.incr "hft.seq_atpg.detected" ~by:!detected;
  Hft_obs.Registry.incr "hft.seq_atpg.dropped" ~by:!dropped;
  Hft_obs.Span.add_attr_int "detected" !detected;
  Hft_obs.Span.add_attr_int "dropped" !dropped;
  {
    detected = !detected;
    untestable = !untestable;
    aborted = !aborted;
    total = List.length faults;
    decisions = !decisions;
    backtracks = !backtracks;
    implications = !implications;
    frames_used = !frames_used;
    rows = List.init (Array.length ledger) row;
  }

let run ?backtrack_limit ?min_frames ?max_frames ?assignable_pis ?strapped
    ?strategy ?on_test ?supervisor ?resolved ?on_resolved ?guidance
    ?on_par_stats ?jobs nl ~faults ~scanned =
  Hft_obs.Span.with_ "seq-atpg"
    ~attrs:
      [ ("circuit", Netlist.circuit_name nl);
        ("faults", string_of_int (List.length faults));
        ("scanned", string_of_int (List.length scanned)) ]
  @@ fun () ->
  campaign ?backtrack_limit ?min_frames ?max_frames ?strategy
    ?on_test:
      (Option.map
         (fun k u assignment ~detects ->
           k (reconstruct_test nl ~scanned u assignment ~detects))
         on_test)
    ?supervisor ?resolved ?on_resolved ?guidance ?on_par_stats ?jobs
    ~view:(fun src frames ->
      unroll_full ?assignable_pis ?strapped src ~frames ~scanned)
    ~detect:Fsim.detect_groups_tri nl ~faults
