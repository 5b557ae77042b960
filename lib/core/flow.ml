open Hft_cdfg
open Hft_rtl

type dft_report = {
  flow : string;
  n_registers : int;
  n_scan_registers : int;
  n_test_registers : int;
  n_cbilbo : int;
  datapath_loops : int;
  self_loops : int;
  sequential_depth : int option;
  area_overhead : float;
  test_sessions : int;
}

type result = {
  graph : Graph.t;
  sched : Schedule.t;
  binding : Hft_hls.Fu_bind.t;
  alloc : Hft_hls.Reg_alloc.t;
  datapath : Datapath.t;
  report : dft_report;
}

let default_resources =
  [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1); (Op.Logic_unit, 1) ]

let count_kind d k =
  Array.fold_left
    (fun acc r -> if r.Datapath.r_kind = k then acc + 1 else acc)
    0 d.Datapath.regs

let measure ~flow ~base_area d ~sessions =
  let s = Sgraph.of_datapath d in
  let scanned =
    Array.to_list d.Datapath.regs
    |> List.filter_map (fun r ->
           match r.Datapath.r_kind with
           | Datapath.Scan | Datapath.Transparent_scan -> Some r.Datapath.r_id
           | Datapath.Plain | Datapath.Tpgr | Datapath.Sr | Datapath.Bilbo
           | Datapath.Cbilbo -> None)
  in
  let g' = Hft_util.Digraph.copy s.Sgraph.graph in
  List.iter (fun r -> Hft_util.Digraph.detach g' r) scanned;
  let remaining = { s with Sgraph.graph = g' } in
  {
    flow;
    n_registers = Datapath.n_regs d;
    n_scan_registers = List.length scanned;
    n_test_registers =
      count_kind d Datapath.Tpgr + count_kind d Datapath.Sr
      + count_kind d Datapath.Bilbo + count_kind d Datapath.Cbilbo;
    n_cbilbo = count_kind d Datapath.Cbilbo;
    datapath_loops = Sgraph.n_nontrivial_loops remaining;
    self_loops = List.length (Sgraph.self_loop_regs remaining);
    sequential_depth = Sgraph.sequential_depth s ~scanned;
    area_overhead =
      (if base_area <= 0.0 then 0.0
       else (Area.datapath_area d -. base_area) /. base_area);
    test_sessions = sessions;
  }

(* Every flow runs under one root span with a child span per phase, so
   [--trace] shows where a synthesis run spends its time; the per-flow
   total also feeds the [hft.flow.time] timer. *)
let span = Hft_obs.Span.with_

let flow_root name g f =
  Hft_obs.Registry.time "hft.flow.time" @@ fun () ->
  span ("flow:" ^ name)
    ~attrs:[ ("ops", string_of_int (Hft_cdfg.Graph.n_ops g)) ]
    (fun () ->
      Hft_obs.Registry.incr "hft.flow.runs";
      f ())

(* The conventional flow up to its datapath. *)
let conventional_datapath ~width ~resources g =
  let latency = Hft_hls.Sched_algos.latencies g in
  let sched =
    span "schedule" (fun () -> Hft_hls.List_sched.schedule ~latency g ~resources)
  in
  let binding =
    span "fu-bind" (fun () -> Hft_hls.Fu_bind.left_edge ~resources g sched)
  in
  let info = span "lifetime" (fun () -> Lifetime.compute g sched) in
  let alloc = span "reg-alloc" (fun () -> Hft_hls.Reg_alloc.left_edge g info) in
  let datapath =
    span "datapath-gen" (fun () ->
        Hft_hls.Datapath_gen.generate ~width g sched binding alloc)
  in
  (sched, binding, alloc, datapath)

let synthesize_conventional ?(width = 8) ?(resources = default_resources) g =
  flow_root "conventional" g @@ fun () ->
  let sched, binding, alloc, datapath =
    conventional_datapath ~width ~resources g
  in
  let base = Area.datapath_area datapath in
  let report =
    span "measure" (fun () ->
        measure ~flow:"conventional" ~base_area:base datapath ~sessions:0)
  in
  { graph = g; sched; binding; alloc; datapath; report }

(* The area a DFT flow's overhead is measured against: the conventional
   datapath, run as a conventional flow but without its report. *)
let baseline_area ~width ~resources g =
  span "baseline" @@ fun () ->
  flow_root "conventional" g @@ fun () ->
  let _, _, _, datapath = conventional_datapath ~width ~resources g in
  Area.datapath_area datapath

let synthesize_for_partial_scan ?(width = 8) ?(resources = default_resources) g =
  flow_root "partial-scan" g @@ fun () ->
  let base_area = baseline_area ~width ~resources g in
  (* Loop-aware scheduling+binding, scan variables from the CDFG. *)
  let ssa =
    span "sched-assign" (fun () -> Sim_sched_assign.run ~resources g None)
  in
  let sched = ssa.Sim_sched_assign.sched in
  let binding = ssa.Sim_sched_assign.binding in
  let info = span "lifetime" (fun () -> Lifetime.compute g sched) in
  let sel =
    span "scan-select" (fun () -> Scan_vars.select_effective g sched)
  in
  (* Scan variables should share scan registers: colour them first,
     preferring to join an existing scan register. *)
  let scan_set = sel.Scan_vars.scan_vars in
  let alloc =
    span "reg-alloc" (fun () -> Hft_hls.Reg_alloc.color ~order:scan_set g info)
  in
  let datapath =
    span "datapath-gen" (fun () ->
        Hft_hls.Datapath_gen.generate ~width g sched binding alloc)
  in
  (* Annotate scan registers: those holding a scan variable, plus any
     further registers needed to break residual assignment loops. *)
  let all_scan =
    span "scan-annotate" @@ fun () ->
    let scan_regs =
      List.filter_map (fun v ->
          let r = alloc.Hft_hls.Reg_alloc.reg_of_var.(v) in
          if r >= 0 then Some r else None)
        scan_set
      |> List.sort_uniq compare
    in
    let s = Sgraph.of_datapath datapath in
    let residual =
      let g' = Hft_util.Digraph.copy s.Sgraph.graph in
      List.iter (fun r -> Hft_util.Digraph.detach g' r) scan_regs;
      Hft_util.Mfvs.greedy ~ignore_self_loops:true g'
    in
    List.sort_uniq compare (scan_regs @ residual)
  in
  List.iter
    (fun r -> datapath.Datapath.regs.(r).Datapath.r_kind <- Datapath.Scan)
    all_scan;
  Hft_obs.Registry.incr "hft.scan.regs_selected" ~by:(List.length all_scan);
  Hft_obs.Span.add_attr_int "scan-regs" (List.length all_scan);
  let report =
    span "measure" (fun () ->
        measure ~flow:"partial-scan" ~base_area datapath ~sessions:0)
  in
  { graph = g; sched; binding; alloc; datapath; report }

let synthesize_for_bist ?(width = 8) ?(resources = default_resources) g =
  flow_root "bist" g @@ fun () ->
  let base_area = baseline_area ~width ~resources g in
  let latency = Hft_hls.Sched_algos.latencies g in
  let sched =
    span "schedule" (fun () -> Hft_hls.List_sched.schedule ~latency g ~resources)
  in
  let binding =
    span "fu-bind" (fun () -> Hft_hls.Fu_bind.left_edge ~resources g sched)
  in
  let info = span "lifetime" (fun () -> Lifetime.compute g sched) in
  let alloc =
    span "bist-reg-assign" (fun () ->
        Hft_bist.Reg_assign.bist_aware g sched binding info)
  in
  let datapath =
    span "datapath-gen" (fun () ->
        Hft_hls.Datapath_gen.generate ~width g sched binding alloc)
  in
  let plan, sessions =
    span "bilbo-plan" @@ fun () ->
    let plan = Hft_bist.Bilbo.plan datapath in
    Hft_bist.Bilbo.annotate datapath plan;
    let sessions = Hft_bist.Session.count datapath plan in
    Hft_obs.Registry.incr "hft.bist.sessions" ~by:sessions;
    Hft_obs.Span.add_attr_int "sessions" sessions;
    (plan, sessions)
  in
  ignore plan;
  let report =
    span "measure" (fun () -> measure ~flow:"bist" ~base_area datapath ~sessions)
  in
  { graph = g; sched; binding; alloc; datapath; report }

type flow_kind = Conventional | Partial_scan | Bist

let flow_kinds =
  [ ("conventional", Conventional); ("partial-scan", Partial_scan);
    ("bist", Bist) ]

let flow_kind_to_string k =
  fst (List.find (fun (_, k') -> k' = k) flow_kinds)

let synthesize ?width ?resources kind g =
  match kind with
  | Conventional -> synthesize_conventional ?width ?resources g
  | Partial_scan -> synthesize_for_partial_scan ?width ?resources g
  | Bist -> synthesize_for_bist ?width ?resources g

(* ------------------------------------------------------------------ *)
(* Gate-level test campaign: expand, sample faults, ATPG, final coverage
   fault simulation.  The prologue (expand and sample) is its own step,
   shared with callers that run their own ATPG legs.                   *)

let expand_and_sample ~rng ~sample r =
  let ex = Hft_gate.Expand.of_datapath r.datapath in
  let nl = ex.Hft_gate.Expand.netlist in
  let faults =
    Hft_gate.Fault.collapsed nl
    |> List.filter (fun _ -> Hft_util.Rng.int rng sample = 0)
  in
  let scan_regs =
    Array.to_list r.datapath.Datapath.regs
    |> List.filter_map (fun reg ->
           if reg.Datapath.r_kind = Datapath.Scan then Some reg.Datapath.r_id
           else None)
  in
  (nl, faults, Hft_gate.Expand.reg_flops ex scan_regs)

type campaign = {
  c_netlist : Hft_gate.Netlist.t;
  c_faults : Hft_gate.Fault.t list;
  c_scanned : int list;
  c_atpg : Hft_gate.Seq_atpg.stats;
  c_tests : Hft_obs.Ledger.test list;
  c_fsim : Hft_gate.Fsim.comb_result;
  c_patterns_stored : int;
  c_resumed_classes : int;
  c_resumed_tests : int;
  c_t_atpg : float;
  c_t_fsim : float;
  c_par : Hft_par.Stats.t;
}

let test_campaign ?(backtrack_limit = 20) ?(max_frames = 2)
    ?(sample = 20) ?(seed = 2024) ?(n_patterns = 64) ?tape ?(resume = false)
    ?(guided = true) ?jobs r =
  span "test-campaign" @@ fun () ->
  if sample < 1 then
    Hft_robust.Validation.fail ~site:"flow.test_campaign"
      ~hint:"1 keeps every fault"
      (Printf.sprintf "fault sample %d is below 1" sample);
  (* The tape holds the campaign's ledger rows and tests, which exist
     only with observability on. *)
  let obs = !Hft_obs.Config.enabled in
  if tape <> None && not obs then
    Hft_robust.Validation.fail ~site:"flow.test_campaign"
      ~hint:"enable observability first (the CLI does)"
      "the campaign tape needs observability enabled";
  let rng = Hft_util.Rng.create seed in
  let nl, faults, scanned = expand_and_sample ~rng ~sample r in
  let n_pi = List.length (Hft_gate.Netlist.pis nl) in
  let n_scan = List.length scanned in
  (* Tape fingerprint: everything that shapes the fault sample, the
     search and the pattern layout.  A resume against a tape written
     under different knobs would silently diverge, so any mismatch is
     an input error. *)
  let netlist_hash =
    (* Structural identity: two circuits with the same shape knobs and
       fault count (e.g. a design and its one-gate-off revision) must
       still refuse to resume each other's tapes. *)
    let h = ref 0 in
    let mix v = h := ((!h * 1000003) lxor v) land max_int in
    for v = 0 to Hft_gate.Netlist.n_nodes nl - 1 do
      mix (Hashtbl.hash (Hft_gate.Netlist.kind nl v));
      Array.iter mix (Hft_gate.Netlist.fanin nl v)
    done;
    !h land 0x3FFFFFFF
  in
  let meta =
    let open Hft_util.Json in
    (* "strategy" is a constant: earlier tapes carry it, and they must
       keep matching. *)
    [ ("flow", String r.report.flow);
      ("netlist", Int netlist_hash);
      ("strategy", String "fast");
      ("backtrack_limit", Int backtrack_limit);
      ("max_frames", Int max_frames);
      ("sample", Int sample);
      ("seed", Int seed);
      ("n_patterns", Int n_patterns);
      ("n_faults", Int (List.length faults));
      ("n_pi", Int n_pi);
      ("n_scan", Int n_scan);
      ("guided", Bool guided) ]
  in
  (* Resume: the tape's committed prefix, read by the same loader as an
     offline report.  An empty file (a run killed before its header)
     restores nothing. *)
  let fail_resume msg =
    Hft_robust.Validation.fail ~site:"flow.resume"
      ~hint:"delete the file to start a fresh campaign"
      (Printf.sprintf "cannot resume from %s: %s" (Option.get tape) msg)
  in
  let prior =
    match tape with
    | Some path when resume && Sys.file_exists path ->
      (match In_channel.with_open_bin path In_channel.input_all with
       | exception Sys_error msg -> fail_resume msg
       | text when String.trim text = "" -> None
       | text ->
         (match Hft_obs.Ledger.of_jsonl text with
          | Error msg -> fail_resume msg
          | Ok t -> Some t))
    | _ -> None
  in
  let tp_rows, tp_tests =
    match prior with
    | Some t -> (t.Hft_obs.Ledger.tp_rows, t.Hft_obs.Ledger.tp_tests)
    | None -> ([], [])
  in
  (* A restored test's rows, in class order: the classes it dropped and
     the one that generated it. *)
  let named = Hashtbl.create 64 in
  List.iter
    (fun (r : Hft_obs.Ledger.row) ->
      Option.iter
        (fun t -> Hashtbl.add named t r)
        (Hft_obs.Ledger.resolution_test r.lr_resolution))
    tp_rows;
  let rows_of (t : Hft_obs.Ledger.test) =
    List.rev (Hashtbl.find_all named t.lt_id)
  in
  (* A restored test detects exactly the members of its rows (the
     engine's [detects], which only replay reads, as a set), looked up
     among the sampled faults by display string. *)
  let by_name = Hashtbl.create 64 in
  if tp_tests <> [] then
    List.iter
      (fun f -> Hashtbl.replace by_name (Hft_gate.Fault.to_string nl f) f)
      faults;
  let fault m =
    match Hashtbl.find_opt by_name m with
    | Some f -> f
    | None -> fail_resume (Printf.sprintf "%s is not a sampled fault" m)
  in
  (* A resumed tape keeps its committed records as written; the engine
     appends after them. *)
  let module Tape = Hft_robust.Checkpoint.Tape in
  let restored_tests, writer =
    match (tape, prior) with
    | Some path, Some tp ->
      let tests, w =
        Tape.resume ~site:"flow.resume"
          ~hint:"rerun with the original options, or delete the file" ~path
          ~schema:Hft_obs.Ledger.schema ~meta
          (tp.Hft_obs.Ledger.tp_meta, tp.Hft_obs.Ledger.tp_records)
        @@ fun () ->
        List.map
          (fun (t : Hft_obs.Ledger.test) ->
            { Hft_gate.Seq_atpg.t_frames = t.lt_frames;
              t_pi_vectors = t.lt_vectors;
              t_scan_state = t.lt_scan;
              t_detects =
                List.concat_map
                  (fun (r : Hft_obs.Ledger.row) -> List.map fault r.lr_members)
                  (rows_of t) })
          tp_tests
      in
      (tests, Some w)
    | _ ->
      ( [],
        Option.map
          (fun path -> Tape.create ~path ~schema:Hft_obs.Ledger.schema ~meta)
          tape )
  in
  let append record =
    Option.iter (fun w -> Tape.emit w (Hft_obs.Ledger.record_to_json record))
      writer
  in
  Fun.protect ~finally:(fun () -> Option.iter Tape.close writer)
  @@ fun () ->
  let store = Pattern_store.create () in
  let seq_tests = ref [] in
  let tests = ref [] and n_tests = ref 0 in
  (* Store a test and, with observability on, return its ledger record:
     its id in generation order, its stimulus and its pattern-store
     rows. *)
  let store_test (t : Hft_gate.Seq_atpg.test) =
    (* One store row per time frame, columns = PIs then scan loads.
       Only frame 0 carries a real scan load; later frames' rows are
       still deterministic, fault-targeting stimuli and get a zero scan
       fill. *)
    let first_row = Pattern_store.size store in
    Array.iteri
      (fun i pi_vec ->
        let row = Array.make (n_pi + n_scan) false in
        Array.blit pi_vec 0 row 0 n_pi;
        if i = 0 then Array.blit t.Hft_gate.Seq_atpg.t_scan_state 0 row n_pi n_scan;
        Pattern_store.add store row)
      t.Hft_gate.Seq_atpg.t_pi_vectors;
    (* Multi-frame tests detect through unscanned state, which a single
       combinational pass cannot reproduce — keep them for a sequential
       (unrolled) replay. *)
    if t.Hft_gate.Seq_atpg.t_frames > 1 then seq_tests := t :: !seq_tests;
    if not obs then None
    else begin
      let lt =
        { Hft_obs.Ledger.lt_id = !n_tests;
          lt_frames = t.t_frames;
          lt_rows = Some (first_row, Array.length t.t_pi_vectors);
          lt_vectors = t.t_pi_vectors;
          lt_scan = t.t_scan_state }
      in
      incr n_tests;
      tests := lt :: !tests;
      Some lt
    end
  in
  (* A tape transaction opens with its test line: the engine hands over
     the test before any row resolving to it. *)
  let on_test t =
    match store_test t with Some lt -> append (Test lt) | None -> ()
  in
  let on_resolved = Option.map (fun _ row -> append (Class row)) writer in
  (* Resume: replay the restored tests through the same store path
     (their ids realign with tape order) and hand the ATPG a rep -> row
     lookup so restored classes are never re-run. *)
  List.iter
    (fun t -> ignore (store_test t : Hft_obs.Ledger.test option))
    restored_tests;
  let resolved =
    if tp_rows = [] then None
    else begin
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (r : Hft_obs.Ledger.row) -> Hashtbl.replace tbl r.lr_rep r)
        tp_rows;
      Some (Hashtbl.find_opt tbl)
    end
  in
  let t0 = Hft_obs.Clock.now () in
  let par_stats = ref None in
  let on_par_stats s = par_stats := Some s in
  let stats =
    let guidance =
      if guided then Some Hft_analysis.Guidance.provide else None
    in
    Hft_scan.Partial_scan.atpg ~backtrack_limit ~max_frames ~on_test ?resolved
      ?on_resolved ?guidance ~on_par_stats ?jobs nl ~faults ~scanned
  in
  let t_atpg = Hft_obs.Clock.now () -. t0 in
  (* Every class has resolved: the end marker's counts let a reader
     tell a finished tape missing a line from an interrupted one. *)
  if writer <> None then
    append
      (End
         { classes = List.length stats.Hft_gate.Seq_atpg.rows;
           tests = !n_tests });
  (* The engine always reports, a degenerate sequential summary at
     jobs = 1, so every campaign record carries utilization. *)
  let par = Option.get !par_stats in
  (* Publish the scheduler summary as counters and gauges in the
     registry (the hft.par series).  They are jobs-dependent by nature,
     so they sit outside the engine bit-identity surfaces. *)
  let open Hft_par.Stats in
  Hft_obs.Registry.incr "hft.par.tasks" ~by:par.s_tasks;
  Hft_obs.Registry.incr "hft.par.waves" ~by:par.s_waves;
  Hft_obs.Registry.incr "hft.par.spec_hits" ~by:par.s_spec_hits;
  Hft_obs.Registry.incr "hft.par.spec_misses" ~by:par.s_spec_misses;
  Hft_obs.Registry.incr "hft.par.inline_recomputes" ~by:par.s_inline;
  Hft_obs.Registry.set "hft.par.jobs" (float_of_int par.s_jobs);
  Hft_obs.Registry.set "hft.par.utilization" (utilization par);
  (* Final coverage fault simulation: replay the ATPG-derived patterns
     (plus random fill) through the scan view — the scan cells are
     pattern-loaded pseudo PIs and their D inputs observed — so faults
     the campaign proved detectable show up as detected here. *)
  let t1 = Hft_obs.Clock.now () in
  (* Final-coverage degrade chain: cone-limited pass, then a naive
     (full-resimulation) retry, then an empty result — a broken
     measurement never sinks the campaign.  A failed multi-frame replay
     keeps the combinational result. *)
  let degraded () = Hft_obs.Registry.incr "hft.robust.degraded" in
  let patterns =
    Pattern_store.padded store ~rng ~n_min:n_patterns ~width:(n_pi + n_scan)
  in
  let comb_scan strategy =
    Hft_gate.Fsim.comb_scan ~strategy nl ~scanned ~patterns faults
  in
  let attempt strategy =
    Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim (fun () ->
        comb_scan strategy)
  in
  let fr =
    match attempt Hft_gate.Fsim.Cone with
    | Ok fr -> fr
    | Error _ ->
      degraded ();
      (match attempt Hft_gate.Fsim.Naive with
       | Ok fr -> fr
       | Error _ ->
         degraded ();
         { Hft_gate.Fsim.detected = []; undetected = faults;
           n_patterns = Array.length patterns })
  in
  (* Faults only the multi-frame tests reach: replay those tests on the
     unrolled circuit against the leftovers and merge. *)
  let fr =
    match (!seq_tests, fr.Hft_gate.Fsim.undetected) with
    | [], _ | _, [] -> fr
    | tests, leftovers ->
      let replay_leg () = Hft_gate.Seq_atpg.replay nl ~scanned ~tests leftovers in
      let merge (det, undet) =
        {
          fr with
          Hft_gate.Fsim.detected = fr.Hft_gate.Fsim.detected @ det;
          undetected = undet;
        }
      in
      (match
         Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim replay_leg
       with
       | Ok r -> merge r
       | Error _ ->
         degraded ();
         fr)
  in
  let t_fsim = Hft_obs.Clock.now () -. t1 in
  {
    c_netlist = nl;
    c_faults = faults;
    c_scanned = scanned;
    c_atpg = stats;
    c_tests = List.rev !tests;
    c_fsim = fr;
    c_patterns_stored = Pattern_store.size store;
    c_resumed_classes = List.length tp_rows;
    c_resumed_tests = List.length tp_tests;
    c_t_atpg = t_atpg;
    c_t_fsim = t_fsim;
    c_par = par;
  }

let report_header =
  [ "flow"; "regs"; "scan"; "test-regs"; "cbilbo"; "loops"; "self-loops";
    "depth"; "area-ovh"; "sessions" ]

let report_row r =
  [
    r.flow;
    string_of_int r.n_registers;
    string_of_int r.n_scan_registers;
    string_of_int r.n_test_registers;
    string_of_int r.n_cbilbo;
    string_of_int r.datapath_loops;
    string_of_int r.self_loops;
    (match r.sequential_depth with None -> "inf" | Some d -> string_of_int d);
    Hft_util.Pretty.pct r.area_overhead;
    string_of_int r.test_sessions;
  ]
