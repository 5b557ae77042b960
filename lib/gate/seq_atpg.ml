type stats = {
  detected : int;
  untestable : int;
  aborted : int;
  total : int;
  decisions : int;
  backtracks : int;
  implications : int;
  frames_used : int;
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
  let order = Netlist.comb_order nl in
  for t = 0 to frames - 1 do
    (* Sources first: Dffs. *)
    List.iter
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
    List.iter
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
  let detected = ref [] in
  let pending = ref faults in
  List.iter
    (fun frames ->
      if !pending <> [] then begin
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
            let ps =
              let want = Hashtbl.create (List.length t.t_detects) in
              List.iter (fun f -> Hashtbl.replace want f ()) t.t_detects;
              List.filter (Hashtbl.mem want) !pending
            in
            match ps with
            | [] -> ()
            | ps ->
              let flags =
                Fsim.detect_groups u.u_net ~assignment:(assignment_of t)
                  ~observe:u.u_observe
                  (List.map (fun f -> Fsim.group u.u_net (u.u_map_fault f)) ps)
              in
              let hit = Hashtbl.create (List.length ps) in
              List.iteri
                (fun i f -> if flags.(i) then Hashtbl.replace hit f ())
                ps;
              pending :=
                List.filter
                  (fun f ->
                    if Hashtbl.mem hit f then begin
                      detected := f :: !detected;
                      false
                    end
                    else true)
                  !pending)
          (List.rev (Hashtbl.find by_frames frames))
      end)
    frame_counts;
  (List.rev !detected, !pending)

(* One speculated PODEM attempt of the frame-growing ladder for one
   class, evaluated on a worker domain: the supervised search outcome,
   the tape of observability writes it deferred ({!Hft_obs.Capture}),
   and — when the ladder failed — the speculated salvage-pattern search
   with its own tape.  The orchestrator replays tapes at commit time in
   class order, so committed telemetry is bit-identical to a sequential
   run; tapes of discarded speculation (the class was dropped first)
   are simply never replayed. *)
type spec_attempt = {
  sp_frames : int;
  sp_outcome : (Podem.result * Podem.effort, Hft_robust.Failure.t) result;
  sp_tape : Hft_obs.Capture.tape;
  sp_salvage :
    ((((int * bool) list * int) option) * Hft_obs.Capture.tape) option;
}

type detect =
  ?on_group_events:(int -> int -> unit) -> ?strategy:Fsim.strategy ->
  Netlist.t -> assignment:(int * bool) list -> observe:int list ->
  Fsim.group list -> bool array

let campaign ?(backtrack_limit = 200) ?(min_frames = 1) ?(max_frames = 6)
    ?(strategy = Drop) ?on_test
    ?(supervisor = Some Hft_robust.Supervisor.default) ?resolved ?on_resolved
    ?guidance ?on_par_stats ?(jobs = 1) ~view ~(detect : detect) nl ~faults =
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
        match supervisor with
        | None -> collapse ()
        | Some _ ->
          (match
             Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Collapse
               collapse
           with
           | Ok p -> p
           | Error _ ->
             (* Degrade to one class per fault: more PODEM calls, but the
                campaign keeps going. *)
             Hft_obs.Registry.incr "hft.robust.degraded";
             naive_groups ())
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
     drop pass or salvage at that frame count — so a class's charge is
     computed at most once per frame count. *)
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
  (* Forensics ledger: one row per class.  Handles are [-1] when
     observability is off, making every ledger call below a no-op; the
     [obs] guard additionally skips the display-string building. *)
  let obs = !Hft_obs.Config.enabled in
  let lh =
    if obs then
      Array.init n_groups (fun gi ->
          Hft_obs.Ledger.register_class
            ~rep:(Fault.to_string nl leaders.(gi))
            ~members:(List.map (Fault.to_string nl) members.(gi)))
    else Array.make n_groups (-1)
  in
  (* The tape hook ([on_resolved]) gets the ledger row of every class
     as it resolves: its charges are complete by then, since a drop
     pass charges its pending classes before resolving any and PODEM
     charges a class before its resolution. *)
  let emit_row gi =
    match on_resolved with
    | Some k when lh.(gi) >= 0 -> k (Hft_obs.Ledger.row lh.(gi))
    | _ -> ()
  in
  let resolve_class gi res =
    Hft_obs.Ledger.resolve lh.(gi) res;
    emit_row gi
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
             Hft_obs.Ledger.restore lh.(gi) row;
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
      (* The pass's ledger charges go over in one call, before any of
         its resolutions. *)
      let evs = Array.make (if obs then List.length pending else 0) 0 in
      let flags =
        detect u.u_net
          ?on_group_events:
            (if obs then Some (fun k ev -> evs.(k) <- ev) else None)
          ~assignment ~observe:u.u_observe
          (List.map (fun gj -> groups.(gj)) pending)
      in
      if obs then
        Hft_obs.Ledger.charge_fsim_events
          (Array.of_list (List.map (fun gj -> lh.(gj)) pending))
          evs;
      let drops = ref [] and dropped_classes = ref [] in
      List.iteri
        (fun k gj ->
          if flags.(k) then begin
            status.(gj) <- `Detected;
            dropped := !dropped + sizes.(gj);
            Hft_obs.Ledger.resolve lh.(gj)
              (Hft_obs.Ledger.Drop_detected { test = tid });
            dropped_classes := gj :: !dropped_classes;
            drops := members.(gj) @ !drops
          end)
        pending;
      (!drops, List.rev !dropped_classes)
  in
  let safe_drop_pass ws assignment self tid =
    match supervisor with
    | None -> drop_pass ws assignment self tid
    | Some _ ->
      (match
         Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim (fun () ->
             drop_pass ws assignment self tid)
       with
       | Ok r -> r
       | Error _ ->
         (* Lose the sweep, keep the test: pending classes get their own
            PODEM attempt later. *)
         Hft_obs.Registry.incr "hft.robust.degraded";
         ([], []))
  in
  (* One PODEM invocation under the supervisor's retry ladder (budget
     escalation + per-attempt deadlines); unsupervised calls keep the
     historical direct path, bit for bit. *)
  let podem_call u f =
    let faults = u.u_map_fault f in
    let gd =
      Option.map (fun provide -> provide u.u_net ~observe:u.u_observe ~faults)
        guidance
    in
    match supervisor with
    | None ->
      Ok
        (Podem.generate ~backtrack_limit ?guidance:gd u.u_net ~faults
           ~assignable:u.u_assignable ~observe:u.u_observe)
    | Some policy ->
      Hft_robust.Supervisor.ladder policy ~site:Hft_robust.Chaos.Podem
        ~budget:backtrack_limit (fun ~budget ~check ->
          Podem.generate ~backtrack_limit:budget ?check ?guidance:gd u.u_net
            ~faults ~assignable:u.u_assignable ~observe:u.u_observe)
  in
  (* Graceful degradation once the PODEM ladder is exhausted: a
     deterministic burst of random patterns over the unrolled inputs,
     checked with [detect] (X-sound where sources stay unassigned — a
     salvaged detection is as real as a PODEM one).  The salvage seed
     depends only on the class index and frame count, so an
     interrupted-and-resumed campaign salvages identically.  Misses resolve the class aborted-with-reason; the
     campaign never crashes. *)
  (* [salvage_search] is a pure function of (workspace unroll, class,
     policy) — the seed depends only on the class index and frame
     count — so worker domains can speculate it; [salvage_commit]
     performs the side-effecting half (test registration, drop pass,
     resolutions) and only ever runs on the orchestrating thread.
     [group] is the class's drop-check group in [u]: the commit thread
     passes its memoized one, a worker prepares its own (the commit
     thread's lazy tables must not be forced from another domain). *)
  let salvage_search policy u gi group =
    let try_salvage () =
      let rng = Hft_util.Rng.create (0x5a17a6e + (7919 * gi) + u.u_frames) in
      let found = ref None in
      let tries = ref 0 in
      while
        !found = None
        && !tries < policy.Hft_robust.Supervisor.salvage_patterns
      do
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
    if policy.Hft_robust.Supervisor.salvage_patterns <= 0 then None
    else
      match
        Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim try_salvage
      with
      | Ok r -> r
      | Error _ -> None
  in
  let salvage_commit policy ((u, _) as ws) gi fail found =
    match found with
    | Some (assignment, patterns) ->
      let tid = Hft_obs.Ledger.register_test ~frames:u.u_frames in
      let drops, dropped_classes = safe_drop_pass ws assignment gi tid in
      Hft_obs.Registry.incr "hft.robust.salvaged";
      (match on_test with
       | Some k -> k u assignment ~detects:(members.(gi) @ drops)
       | None -> ());
      List.iter emit_row dropped_classes;
      resolve_class gi (Hft_obs.Ledger.Salvaged { test = tid; patterns });
      `Detected
    | None ->
      let budget =
        Hft_robust.Supervisor.final_budget policy ~budget:backtrack_limit
      in
      Hft_obs.Registry.incr "hft.robust.degraded";
      resolve_class gi
        (Hft_obs.Ledger.Aborted
           { budget; frames = u.u_frames;
             reason = Some (Hft_robust.Failure.to_string fail) });
      `Aborted
  in
  (* Target one class through the growing-frames ladder and commit its
     resolution.  [spec] carries per-frame attempts a worker domain
     evaluated speculatively: a matching attempt replays its captured
     telemetry and reuses the search outcome instead of re-running
     PODEM; on any mismatch (or no speculation at all — [jobs = 1],
     dead shard) the attempt is computed inline by exactly the code the
     sequential engine runs.  Commit order is class order either way,
     so results and telemetry are bit-identical at any jobs count. *)
  let process_class ?(spec = []) gi f =
    let cls_backtracks = ref 0 in
    let rec attempt spec frames last =
      if frames > max_frames then begin
        (match last with
         | `Untestable ->
           resolve_class gi
             (Hft_obs.Ledger.Proved_untestable { frames = max_frames })
         | `Aborted ->
           resolve_class gi
             (Hft_obs.Ledger.Aborted
                { budget = backtrack_limit; frames = max_frames;
                  reason = None })
         | _ -> ());
        last
      end
      else begin
        let ((u, groups) as ws) = Lazy.force unrolled.(frames - 1) in
        let outcome, spec_salvage, spec_rest =
          match spec with
          | sa :: rest when sa.sp_frames = frames ->
            Hft_obs.Capture.replay sa.sp_tape;
            (sa.sp_outcome, sa.sp_salvage, rest)
          | _ -> (podem_call u f, None, [])
        in
        match outcome with
        | Error fail ->
          (* Ladder exhausted at this frame count: the failure is
             not frame-related (timeout / injection / exception), so
             degrade right here instead of burning more frames. *)
          (match supervisor with
           | Some policy ->
             let found =
               match spec_salvage with
               | Some (found, stape) ->
                 Hft_obs.Capture.replay stape;
                 found
               | None -> salvage_search policy u gi (Lazy.force groups).(gi)
             in
             salvage_commit policy ws gi fail found
           | None -> assert false)
        | Ok (result, effort) ->
          decisions := !decisions + effort.Podem.decisions;
          backtracks := !backtracks + effort.Podem.backtracks;
          implications := !implications + effort.Podem.implications;
          cls_backtracks := !cls_backtracks + effort.Podem.backtracks;
          Hft_obs.Ledger.charge lh.(gi)
            ~implications:effort.Podem.implications
            ~backtracks:effort.Podem.backtracks
            ~guided_cuts:effort.Podem.guided_cuts;
          if frames > !frames_used then frames_used := frames;
          match result with
          | Podem.Test assignment ->
            let tid = Hft_obs.Ledger.register_test ~frames in
            (* Drop first: the test's recorded detections then cover
               both the targeted class and every class it swept. *)
            let drops, dropped_classes =
              if strategy = Drop then safe_drop_pass ws assignment gi tid
              else ([], [])
            in
            (match on_test with
             | Some k -> k u assignment ~detects:(members.(gi) @ drops)
             | None -> ());
            List.iter emit_row dropped_classes;
            resolve_class gi
              (Hft_obs.Ledger.Podem_detected
                 { test = tid; backtracks = !cls_backtracks; frames });
            `Detected
          | Podem.Untestable ->
            (* May become testable with more frames. *)
            attempt spec_rest (frames + 1) `Untestable
          | Podem.Aborted -> attempt spec_rest (frames + 1) `Aborted
      end
    in
    status.(gi) <- attempt spec (min min_frames max_frames) `Untestable
  in
  (* Speculative evaluation of one class on a worker domain: run the
     same frame ladder [process_class] will walk, with every
     observability write captured onto tapes.  A worker's workspace is
     its own {!Netlist.copy} of the original plus a per-frame cache of
     views built from that copy (node ids are positions, so faults and
     assignments transfer verbatim); view construction cost is
     suppressed outright — it has no sequential counterpart. *)
  let ws_unroll (src, cache) frames =
    match cache.(frames - 1) with
    | Some u -> u
    | None ->
      let u = Hft_obs.Capture.suppress (fun () -> view src frames) in
      cache.(frames - 1) <- Some u;
      u
  in
  let eval_class ws gi =
    let f = leaders.(gi) in
    let rec go frames acc =
      let u = ws_unroll ws frames in
      let outcome, tape = Hft_obs.Capture.record (fun () -> podem_call u f) in
      match outcome with
      | Ok (Podem.Test _, _) ->
        List.rev
          ({ sp_frames = frames; sp_outcome = outcome; sp_tape = tape;
             sp_salvage = None }
           :: acc)
      | Ok ((Podem.Untestable | Podem.Aborted), _) ->
        let acc =
          { sp_frames = frames; sp_outcome = outcome; sp_tape = tape;
            sp_salvage = None }
          :: acc
        in
        if frames >= max_frames then List.rev acc else go (frames + 1) acc
      | Error _ ->
        let sp_salvage =
          match supervisor with
          | None -> None
          | Some policy ->
            Some
              (Hft_obs.Capture.record (fun () ->
                   salvage_search policy u gi
                     (Fsim.group u.u_net (u.u_map_fault f))))
        in
        List.rev
          ({ sp_frames = frames; sp_outcome = outcome; sp_tape = tape;
             sp_salvage }
           :: acc)
    in
    go (min min_frames max_frames) []
  in
  (* Parallel driver: windows of ~2×jobs pending classes are evaluated
     speculatively across the pool, then committed strictly in class
     order.  A class dropped by an earlier commit discards its
     speculation (tapes never replayed); a shard death leaves [None]
     results that commit inline — the window size trades speculation
     waste against parallelism and cannot affect results. *)
  let par_stats = ref None in
  let run_parallel pool =
    (* Scheduler telemetry rides along only when a consumer asked for
       it; the collector is observational either way (commit order and
       replayed tapes are untouched). *)
    let stats =
      Option.map (fun _ -> Hft_par.Stats.collector ~jobs) on_par_stats
    in
    Hft_par.Pool.parallel pool ?stats
      ~init:(fun () -> (Netlist.copy nl, Array.make max_frames None))
    @@ fun section ->
    let win = 2 * jobs in
    let cursor = ref 0 in
    while !cursor < n_groups do
      let chunk_start = !cursor in
      let picked = ref [] in
      let count = ref 0 in
      let i = ref chunk_start in
      while !count < win && !i < n_groups do
        if status.(!i) = `Pending then begin
          picked := !i :: !picked;
          incr count
        end;
        incr i
      done;
      let chunk_end = !i in
      let window = Array.of_list (List.rev !picked) in
      let specs, fails =
        if Array.length window = 0 then ([||], [])
        else
          section.run ~n:(Array.length window) ~f:(fun ws k ->
              eval_class ws window.(k))
      in
      List.iter
        (fun _fail -> Hft_obs.Registry.incr "hft.robust.degraded")
        fails;
      (* Commit strictly in class order.  [window] is exactly the
         classes of [chunk_start, chunk_end) that were pending at pick
         time, in ascending order, so iterating it is the same loop the
         sequential chunk walk ran — plus per-task speculation
         accounting: a still-pending class replays its speculation
         (hit) or recomputes inline (dead shard); a class resolved by
         an earlier commit discards it (miss).  Exactly one bucket per
         dispatched task. *)
      Array.iteri
        (fun k gi ->
          if status.(gi) = `Pending then
            match specs.(k) with
            | Some spec ->
              Option.iter Hft_par.Stats.note_hit stats;
              process_class ~spec gi leaders.(gi)
            | None ->
              Option.iter Hft_par.Stats.note_inline stats;
              process_class gi leaders.(gi)
          else Option.iter Hft_par.Stats.note_miss stats)
        window;
      cursor := chunk_end
    done;
    par_stats := Option.map Hft_par.Stats.finish stats
  in
  if jobs > 1 && n_groups > 1 then run_parallel (Hft_par.Pool.get ~jobs)
  else
    Array.iteri
      (fun gi f -> if status.(gi) = `Pending then process_class gi f)
      leaders;
  (match on_par_stats with
   | None -> ()
   | Some k ->
     let s =
       match !par_stats with
       | Some s -> s
       | None ->
         (* Sequential path: synthesize the degenerate summary so every
            consumer sees a utilization field. *)
         Hft_par.Stats.sequential
           ~wall_ns:
             (int_of_float ((Hft_obs.Clock.now () -. t_start) *. 1e9))
     in
     k s);
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
