(* Layer-by-layer benchmark of the hft flow: behaviour -> synthesis ->
   gate expansion -> fault collapse -> ATPG -> final fault simulation.

   One run is one process in four steps: set-up (build the inputs,
   warm the domain pool), timed passes with observability off, an
   optional traced pass with it on, then untimed correctness checks.
   The last stdout line is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the detail document (pass samples, quartiles, every metric, the
   checks).  README.md has the workloads and the metric glossary. *)

open Hft_core
module Json = Hft_util.Json
module Rng = Hft_util.Rng
module Graph = Hft_cdfg.Graph
module Registry = Hft_obs.Registry

let now = Unix.gettimeofday
let width = 4

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Python's [statistics.quantiles xs ~n:4] (exclusive method), so the
   quartiles printed here match the ones compare.py computes. *)
let quartiles xs =
  match List.sort compare xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* One unit of work in a pass: synthesize [graph] under [flow], then
   either run a test campaign keeping one fault in [sample], or (no
   sample) expand to gates and collapse the fault list. *)
type op = {
  label : string;
  flow : Flow.flow_kind;
  graph : Graph.t;
  sample : int option;
}

type workload = { jobs : int; ops : op list }

let workload_names =
  [ "scan-campaign"; "noscan-campaign"; "noscan-campaign-j2"; "synth-random" ]

(* The same four behaviours on both sides of the scan claim: tseng has
   no feedback, diffeq/iir4 have state loops, lms4 is the loop-heaviest
   entry of the suite. *)
let campaign ~smoke ~flow ~jobs =
  let sample = Some (if smoke then 40 else 1) in
  {
    jobs;
    ops =
      List.map
        (fun b ->
          { label = b; flow; graph = Hft_cdfg.Bench_suite.by_name b; sample })
        [ "tseng"; "diffeq"; "lms4"; "iir4" ];
  }

(* The random CDFGs come from one fixed generator stream.  Drawn from
   --seed instead, the pass time spread 30% across seeds (the binding
   search cost depends strongly on graph shape), above any usable
   bound; the seed still varies every check vector.  The partial-scan
   graphs also get a sampled test campaign (fixed fault sample), so
   coverage is measured on every workload. *)
let synth_random ~smoke =
  let rng = Rng.create 1 in
  let spec =
    if smoke then
      [ (Flow.Partial_scan, 24, Some 40); (Flow.Bist, 24, None);
        (Flow.Conventional, 24, None) ]
    else
      [ (Flow.Partial_scan, 56, Some 20); (Flow.Partial_scan, 56, Some 20);
        (Flow.Bist, 160, None); (Flow.Bist, 160, None);
        (Flow.Conventional, 1000, None) ]
  in
  {
    jobs = 1;
    ops =
      List.mapi
        (fun i (flow, n, sample) ->
          let graph =
            Hft_cdfg.Bench_suite.random rng ~n_inputs:(max 1 (n / 8)) ~n_ops:n
              ~p_feedback:0.1
          in
          {
            label =
              Printf.sprintf "random%d-%s-%d" i (Flow.flow_kind_to_string flow) n;
            flow;
            graph;
            sample;
          })
        spec;
  }

let build_workload ~smoke = function
  | "scan-campaign" -> campaign ~smoke ~flow:Flow.Partial_scan ~jobs:1
  | "noscan-campaign" -> campaign ~smoke ~flow:Flow.Conventional ~jobs:1
  | "noscan-campaign-j2" -> campaign ~smoke ~flow:Flow.Conventional ~jobs:2
  | "synth-random" -> synth_random ~smoke
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type campaign_out = {
  stats : Hft_gate.Seq_atpg.stats;
  n_faults : int;  (** the sampled fault list *)
  fsim_detected : int;
  patterns : int;
  t_atpg : float;
  t_fsim : float;
  par : Hft_par.Stats.t;
}

type op_out = {
  result : Flow.result;
  area : float;
  synth_s : float;
  camp : campaign_out option;
}

let run_op ~jobs op =
  let t0 = now () in
  let result = Flow.synthesize ~width op.flow op.graph in
  let synth_s = now () -. t0 in
  let camp =
    match op.sample with
    | None ->
      let ex = Hft_gate.Expand.of_datapath result.Flow.datapath in
      ignore (Hft_gate.Fault.collapsed ex.Hft_gate.Expand.netlist : _ list);
      None
    | Some sample ->
      let c = Flow.test_campaign ~sample ~jobs result in
      Some
        {
          stats = c.Flow.c_atpg;
          n_faults = List.length c.Flow.c_faults;
          fsim_detected = List.length c.Flow.c_fsim.Hft_gate.Fsim.detected;
          patterns = c.Flow.c_patterns_stored;
          t_atpg = c.Flow.c_t_atpg;
          t_fsim = c.Flow.c_t_fsim;
          par = c.Flow.c_par;
        }
  in
  { result; area = Hft_rtl.Area.datapath_area result.Flow.datapath; synth_s; camp }

(* Everything that must repeat exactly from pass to pass, at any jobs
   count, traced or not. *)
let fingerprint o =
  let r = o.result.Flow.report in
  let synth =
    Printf.sprintf "regs=%d scan=%d loops=%d area=%h" r.Flow.n_registers
      r.Flow.n_scan_registers r.Flow.datapath_loops o.area
  in
  match o.camp with
  | None -> synth
  | Some c ->
    let s = c.stats in
    Printf.sprintf "%s det=%d unt=%d ab=%d tot=%d dec=%d bt=%d imp=%d fsim=%d pat=%d"
      synth s.detected s.untestable s.aborted s.total s.decisions s.backtracks
      s.implications c.fsim_detected c.patterns

type pass = {
  wall : float;
  outs : (op_out, string) result list;  (** one per op, in op order *)
  minor_words : float;
  major_collections : int;
}

let run_pass ~jobs ops =
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let outs =
    List.map
      (fun op ->
        match run_op ~jobs op with
        | o -> Ok o
        | exception e -> Error (Printexc.to_string e))
      ops
  in
  let wall = now () -. t0 in
  {
    wall;
    outs;
    minor_words = Gc.minor_words () -. minor0;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - major0;
  }

let sum_outs f p =
  List.fold_left
    (fun acc -> function Ok o -> acc +. f o | Error _ -> acc)
    0.0 p.outs

let sum_camps f p =
  sum_outs (fun o -> match o.camp with Some c -> f c | None -> 0.0) p

(* ------------------------------------------------------------------ *)
(* Correctness checks (untimed)                                         *)

type check = { c_op : string; c_name : string; c_ok : bool; c_detail : string }

(* Gate-level expansion against RTL simulation on random inputs and a
   random register state. *)
let gate_matches_rtl rng (r : Flow.result) ex ~vectors =
  let d = r.Flow.datapath in
  let word () = Rng.int rng (1 lsl width) in
  List.for_all
    (fun _ ->
      let inputs =
        List.map (fun v -> (v.Graph.v_name, word ())) (Graph.inputs r.Flow.graph)
      in
      let state =
        Array.to_list d.Hft_rtl.Datapath.regs
        |> List.map (fun reg -> (reg.Hft_rtl.Datapath.r_name, word ()))
      in
      let rtl, _ = Hft_rtl.Datapath.simulate d ~inputs ~state () in
      let gate = Hft_gate.Expand.run_iteration d ex ~inputs ~state () in
      List.for_all (fun (name, v) -> List.assoc_opt name gate = Some v) rtl)
    (List.init vectors Fun.id)

type gate_size = {
  expand_s : float;
  collapse_s : float;
  nodes : int;
  faults : int;
  classes : int;
}

(* Checks on one op, given its first successful output and every
   execution of it.  Also times one expansion and one collapse of its
   data path from outside (the gate.* metrics). *)
let check_op rng op ~first ~runs =
  let mk name ok detail = { c_op = op.label; c_name = name; c_ok = ok; c_detail = detail } in
  let errors = List.filter_map (function Error e -> Some e | Ok _ -> None) runs in
  let ran = mk "ran" (errors = []) (String.concat "; " errors) in
  let fps =
    List.sort_uniq compare
      (List.filter_map (function Ok o -> Some (fingerprint o) | Error _ -> None) runs)
  in
  let repeat = mk "deterministic" (List.length fps <= 1) (String.concat " | " fps) in
  match first with
  | None -> ([ ran; repeat ], None)
  | Some o ->
    let r = o.result in
    let t0 = now () in
    let ex = Hft_gate.Expand.of_datapath r.Flow.datapath in
    let t1 = now () in
    let collapsed = Hft_gate.Fault.collapsed ex.Hft_gate.Expand.netlist in
    let t2 = now () in
    let nl = ex.Hft_gate.Expand.netlist in
    let n_collapsed = List.length collapsed in
    let size =
      {
        expand_s = t1 -. t0;
        collapse_s = t2 -. t1;
        nodes = Hft_gate.Netlist.n_nodes nl;
        faults = n_collapsed;
        classes =
          List.length
            (Hft_gate.Fault_collapse.partition
               (Hft_gate.Fault_collapse.compute nl) collapsed);
      }
    in
    let behaviour =
      mk "behaviour"
        (Hft_hls.Datapath_gen.check_against_behaviour ~width ~trials:20 rng
           r.Flow.graph r.Flow.datapath)
        "CDFG interpreter vs RTL simulation, 20 trials"
    in
    let gate =
      (* One gate-level iteration of the 16.6k-node netlist costs about
         0.7 s; big netlists get a single vector. *)
      let vectors = if size.nodes > 5000 then 1 else 5 in
      mk "gate-vs-rtl" (gate_matches_rtl rng r ex ~vectors)
        (Printf.sprintf "Expand.run_iteration vs Datapath.simulate, %d vectors" vectors)
    in
    let loops =
      if op.flow = Flow.Partial_scan then
        [ mk "loop-free" (r.Flow.report.Flow.datapath_loops = 0)
            (Printf.sprintf "datapath_loops=%d" r.Flow.report.Flow.datapath_loops) ]
      else []
    in
    let conservation =
      match o.camp with
      | None -> []
      | Some c ->
        let s = c.stats in
        let universe_ok =
          if op.sample = Some 1 then c.n_faults = n_collapsed
          else c.n_faults <= n_collapsed
        in
        [ mk "conservation"
            (s.detected + s.untestable + s.aborted = s.total
             && s.total = c.n_faults && universe_ok)
            (Printf.sprintf "det=%d unt=%d ab=%d total=%d sampled=%d collapsed=%d"
               s.detected s.untestable s.aborted s.total c.n_faults n_collapsed) ]
    in
    (ran :: repeat :: behaviour :: gate :: loops @ conservation, Some size)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

(* Deterministic totals over one pass's outputs. *)
let quality p =
  let f g = sum_outs g p and c g = sum_camps g p in
  let dft =
    List.filter_map
      (function
        | Ok o when o.result.Flow.report.Flow.flow <> "conventional" ->
          Some o.result.Flow.report.Flow.area_overhead
        | Ok _ | Error _ -> None)
      p.outs
  in
  ( [ m "fault_coverage" "frac"
        (ratio (c (fun c -> float c.fsim_detected)) (c (fun c -> float c.n_faults)));
      m "aborted_frac" "frac"
        (ratio
           (c (fun c -> float c.stats.aborted))
           (c (fun c -> float c.stats.total)));
      m "area" "ge" (f (fun o -> o.area)) ],
    [ m "atpg.detected" "count" (c (fun c -> float c.stats.detected));
      m "atpg.untestable" "count" (c (fun c -> float c.stats.untestable));
      m "atpg.aborted" "count" (c (fun c -> float c.stats.aborted));
      m "core.scan_regs" "count"
        (f (fun o -> float o.result.Flow.report.Flow.n_scan_registers));
      m "core.area_overhead" "frac"
        (ratio (List.fold_left ( +. ) 0.0 dft) (float (List.length dft)));
      m "core.datapath_loops" "count"
        (f (fun o -> float o.result.Flow.report.Flow.datapath_loops)) ] )

(* Per-pass figures from the untimed-observability passes, reported as
   the median over passes. *)
let untraced_layers passes =
  let med f = median (List.map f passes) in
  let par f = sum_camps (fun c -> f c.par) in
  let atpg_s = med (sum_camps (fun c -> c.t_atpg)) in
  let faults = match passes with p :: _ -> sum_camps (fun c -> float c.n_faults) p | [] -> 0.0 in
  let open Hft_par.Stats in
  [ m "atpg.s" "s" atpg_s;
    m "atpg.faults_per_s" "1/s" (ratio faults atpg_s);
    m "fsim.final_s" "s" (med (sum_camps (fun c -> c.t_fsim)));
    m "synth.s" "s" (med (sum_outs (fun o -> o.synth_s)));
    m "par.utilization" "frac"
      (med (fun p ->
           ratio
             (par (fun s -> float (busy_ns s)) p)
             (par (fun s -> float (s.s_jobs * s.s_wall_ns)) p)));
    m "par.spec_miss_frac" "frac"
      (med (fun p ->
           ratio (par (fun s -> float (spec_misses s)) p) (par (fun s -> float s.s_tasks) p)));
    m "par.steals" "count" (med (par (fun s -> float (steals s))));
    m "par.inline_recomputes" "count" (med (par (fun s -> float (inline s))));
    m "par.critical_s" "s" (med (par (fun s -> float s.s_critical_ns /. 1e9)));
    m "gc.minor_mwords" "Mword" (med (fun p -> p.minor_words /. 1e6));
    m "gc.major_collections" "count" (med (fun p -> float p.major_collections)) ]

(* Synthesis phases, as shares of the traced pass's synthesis time:
   some phases exist only in some flows. *)
let phase_spans =
  [ ("hls.schedule_pct", "schedule"); ("hls.fu_bind_pct", "fu-bind");
    ("hls.lifetime_pct", "lifetime"); ("hls.reg_alloc_pct", "reg-alloc");
    ("hls.datapath_gen_pct", "datapath-gen"); ("core.measure_pct", "measure");
    ("core.sched_assign_pct", "sched-assign");
    ("core.scan_select_pct", "scan-select");
    ("core.scan_annotate_pct", "scan-annotate");
    ("bist.reg_assign_pct", "bist-reg-assign");
    ("bist.bilbo_plan_pct", "bilbo-plan") ]

(* Read back the registry and span tree right after the traced pass. *)
let traced_layers traced ~wall_s =
  let cnt name = float (Registry.count name) in
  let podem_s = Registry.value "hft.podem.time" in
  let fsim_s = Registry.value "hft.fsim.time" in
  let final_s = sum_camps (fun c -> c.t_fsim) traced in
  let drop_s = fsim_s -. final_s in
  let atpg_s = sum_camps (fun c -> c.t_atpg) traced in
  let self = Hft_obs.Export.self_times () in
  let synth_traced =
    List.fold_left
      (fun acc s ->
        if String.starts_with ~prefix:"flow:" (Hft_obs.Span.name s) then
          acc +. Hft_obs.Span.elapsed s
        else acc)
      0.0 (Hft_obs.Span.roots ())
  in
  let hits = cnt "hft.analysis.cache_hits" in
  [ m "atpg.other_s" "s" (atpg_s -. podem_s -. drop_s);
    m "podem.s" "s" podem_s;
    m "podem.runs" "count" (cnt "hft.podem.runs");
    m "podem.decisions" "count" (cnt "hft.podem.decisions");
    m "podem.backtracks" "count" (cnt "hft.podem.backtracks");
    m "podem.implications" "count" (cnt "hft.podem.implications");
    m "podem.aborts" "count" (cnt "hft.podem.aborts");
    m "podem.abort_frac" "frac" (ratio (cnt "hft.podem.aborts") (cnt "hft.podem.runs"));
    m "podem.decisions_per_s" "1/s" (ratio (cnt "hft.podem.decisions") podem_s);
    m "drop.s" "s" drop_s;
    m "drop.dropped" "count" (cnt "hft.seq_atpg.dropped");
    m "drop.yield" "1/run" (ratio (cnt "hft.seq_atpg.dropped") (cnt "hft.fsim.runs"));
    m "fsim.runs" "count" (cnt "hft.fsim.runs");
    m "fsim.events" "count" (cnt "hft.fsim.events");
    m "fsim.events_per_s" "1/s" (ratio (cnt "hft.fsim.events") fsim_s);
    m "analysis.provides" "count" (cnt "hft.analysis.provides");
    m "analysis.cache_hit_frac" "frac"
      (ratio hits (hits +. cnt "hft.analysis.cache_misses"));
    m "hls.sched.candidate_evals" "count" (cnt "hft.sched.candidate_evals");
    m "hls.bind.candidate_evals" "count" (cnt "hft.bind.candidate_evals");
    m "hls.reg_alloc.conflict_checks" "count" (cnt "hft.reg_alloc.conflict_checks");
    m "obs.traced_s" "s" traced.wall;
    m "obs.overhead_pct" "%" (100.0 *. (ratio traced.wall wall_s -. 1.0)) ]
  @ List.map
      (fun (name, span) ->
        let s = Option.value ~default:0.0 (List.assoc_opt span self) in
        m name "%" (100.0 *. ratio s synth_traced))
      phase_spans

let gate_layers sizes =
  let f g = List.fold_left (fun acc s -> acc +. g s) 0.0 sizes in
  [ m "gate.expand_s" "s" (f (fun s -> s.expand_s));
    m "gate.collapse_s" "s" (f (fun s -> s.collapse_s));
    m "gate.nodes" "count" (f (fun s -> float s.nodes));
    m "gate.faults" "count" (f (fun s -> float s.faults));
    m "gate.classes" "count" (f (fun s -> float s.classes)) ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

type outcome = {
  detail : Json.t;
  end_to_end : metric list;
  per_layer : metric list option;  (** [Some] when a traced pass ran *)
  checks : check list;
  attempted : int;
  failed : int;
}

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x -> (x.m_name, Json.Obj [ ("value", Json.Float x.m_value); ("unit", Json.String x.m_unit) ]))
       ms)

let run ?jobs ~name ~seed ~seconds ~trace ~smoke ~trace_out ~folded_out () =
  (* 1. Set-up, repeated a fixed number of times before every timed
     pass.  One campaign set-up takes under a millisecond, and the host
     drifts between fast and slow phases lasting seconds, so the median
     over repetitions spread across the whole run is the reported
     figure.  A fixed count keeps the heap history before each pass the
     same in every run.  The domain pool is spawned by the first
     repetition and reused. *)
  let setup_times = ref [] in
  let set_up () =
    let build () =
      let t0 = now () in
      let w = build_workload ~smoke name in
      let w = match jobs with Some jobs -> { w with jobs } | None -> w in
      if w.jobs > 1 then ignore (Hft_par.Pool.get ~jobs:w.jobs : Hft_par.Pool.t);
      setup_times := (now () -. t0) :: !setup_times;
      w
    in
    for _ = 2 to 7 do ignore (build () : workload) done;
    build ()
  in
  (* 2. Timed passes, observability off, while one more pass of the
     mean length so far still fits in [seconds].  The heap high-water
     mark is read after the first pass, whose allocation history is the
     same in every run. *)
  Hft_obs.enabled := false;
  let t0 = now () in
  let w = set_up () in
  let first = run_pass ~jobs:w.jobs w.ops in
  let peak_heap_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let rec timed acc n =
    let elapsed = now () -. t0 in
    if elapsed +. (elapsed /. float n) <= seconds then begin
      let w = set_up () in
      timed (run_pass ~jobs:w.jobs w.ops :: acc) (n + 1)
    end
    else List.rev acc
  in
  let passes = timed [ first ] 1 in
  let setup_s = median !setup_times in
  let walls = List.map (fun p -> p.wall) passes in
  let wall_s = median walls in
  (* 3. Traced pass. *)
  let traced =
    if not trace then None
    else begin
      Hft_obs.reset ();
      let p = Hft_obs.with_enabled true (fun () -> run_pass ~jobs:w.jobs w.ops) in
      let layers = traced_layers p ~wall_s in
      Option.iter
        (fun path -> write_file path (Json.to_string (Hft_obs.Export.chrome_trace ())))
        trace_out;
      Option.iter (fun path -> write_file path (Hft_obs.Export.folded_stacks ())) folded_out;
      Hft_obs.reset ();
      Some (p, layers)
    end
  in
  (* 4. Checks.  A parallel workload must match one sequential pass. *)
  let reference = if w.jobs > 1 then [ run_pass ~jobs:1 w.ops ] else [] in
  let all_passes = passes @ reference @ Option.to_list (Option.map fst traced) in
  let rng = Rng.create seed in
  let per_op =
    List.mapi
      (fun i op ->
        let runs = List.map (fun p -> List.nth p.outs i) all_passes in
        let first = List.find_map (function Ok o -> Some o | Error _ -> None) runs in
        let checks, size = check_op rng op ~first ~runs in
        (runs, checks, size))
      w.ops
  in
  let checks = List.concat_map (fun (_, c, _) -> c) per_op in
  let attempted = List.length w.ops * List.length all_passes in
  let failed =
    List.fold_left
      (fun acc (runs, cs, _) ->
        if List.for_all (fun c -> c.c_ok) cs then acc
        else acc + List.length runs)
      0 per_op
  in
  let e2e_quality, quality_layers = quality (List.hd passes) in
  let end_to_end =
    [ m "wall_s" "s" wall_s; m "setup_s" "s" setup_s;
      m "peak_heap_mb" "MB" peak_heap_mb ]
    @ e2e_quality
  in
  let per_layer =
    Option.map
      (fun (_, layers) ->
        untraced_layers passes @ layers @ quality_layers
        @ gate_layers (List.filter_map (fun (_, _, s) -> s) per_op))
      traced
  in
  let q1, q2, q3 = quartiles walls in
  let detail =
    Json.Obj
      ([ ("workload", Json.String name); ("seed", Json.Int seed);
         ("trace", Json.Bool trace); ("smoke", Json.Bool smoke);
         ("jobs", Json.Int w.jobs);
         ("ops", Json.List (List.map (fun op -> Json.String op.label) w.ops));
         ("passes", Json.Int (List.length passes));
         ("pass_s", Json.List (List.map (fun x -> Json.Float x) walls));
         ("pass_quartiles_s", Json.List [ Json.Float q1; Json.Float q2; Json.Float q3 ]);
         ("setup_reps", Json.Int (List.length !setup_times));
         ("setup_quartiles_s",
          let s1, s2, s3 = quartiles !setup_times in
          Json.List [ Json.Float s1; Json.Float s2; Json.Float s3 ]);
         ("end_to_end", metrics_json end_to_end) ]
      @ (match per_layer with Some l -> [ ("per_layer", metrics_json l) ] | None -> [])
      @ [ ("checks",
           Json.List
             (List.map
                (fun c ->
                  Json.Obj
                    [ ("op", Json.String c.c_op); ("check", Json.String c.c_name);
                      ("ok", Json.Bool c.c_ok); ("detail", Json.String c.c_detail) ])
                checks)) ])
  in
  { detail; end_to_end; per_layer; checks; attempted; failed }

(* ------------------------------------------------------------------ *)
(* Smoke mode: every workload of the spec at a small size              *)

let spec_names spec key =
  match Json.member key spec with
  | Some (Json.List l) ->
    List.filter_map
      (fun e ->
        match (Json.member "name" e, Json.member "unit" e) with
        | Some (Json.String n), Some (Json.String u) -> Some (n, u)
        | Some (Json.String n), None -> Some (n, "")
        | _ -> None)
      l
  | _ -> []

let smoke_all spec_path =
  let spec =
    match Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (spec_path ^ ": " ^ e)
  in
  let e2e = spec_names spec "end_to_end" and layers = spec_names spec "per_layer" in
  let same what expected ms =
    let got = List.map (fun x -> (x.m_name, x.m_unit)) ms in
    let missing = List.filter (fun e -> not (List.mem e got)) expected in
    let extra = List.filter (fun g -> not (List.mem g expected)) got in
    List.iter (fun (n, u) -> Printf.printf "  %s: missing %s [%s]\n" what n u) missing;
    List.iter (fun (n, u) -> Printf.printf "  %s: unlisted %s [%s]\n" what n u) extra;
    missing = [] && extra = []
  in
  let ok =
    List.fold_left
      (fun ok (name, _) ->
        if not (List.mem name workload_names) then begin
          Printf.printf "%s: unknown workload\n" name;
          false
        end
        else begin
          let o =
            run ~name ~seed:1 ~seconds:0.0 ~trace:true ~smoke:true ~trace_out:None
              ~folded_out:None ()
          in
          let bad = List.filter (fun c -> not c.c_ok) o.checks in
          List.iter
            (fun c -> Printf.printf "  check %s/%s failed: %s\n" c.c_op c.c_name c.c_detail)
            bad;
          let e2e_ok = same "end_to_end" e2e o.end_to_end in
          let layers_ok =
            same "per_layer" layers (Option.value ~default:[] o.per_layer)
          in
          let names_ok = e2e_ok && layers_ok in
          Printf.printf "%s: %d ops, %d checks, %s\n" name o.attempted
            (List.length o.checks)
            (if bad = [] && names_ok then "ok" else "FAILED");
          ok && bad = [] && names_ok
        end)
      true (spec_names spec "workloads")
  in
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "perf.exe --workload NAME --seed N --seconds S --trace 0|1 \
   [--jobs N] [--smoke] [--trace-out FILE] [--folded-out FILE]\n\
   perf.exe --smoke-all BENCHMARK.json"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fail msg =
    prerr_endline (msg ^ "\nusage: " ^ usage);
    exit 2
  in
  let valued =
    [ "workload"; "seed"; "seconds"; "trace"; "jobs"; "trace-out"; "folded-out";
      "smoke-all" ]
  in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | flag :: v :: rest
      when String.length flag > 2
           && List.mem (String.sub flag 2 (String.length flag - 2)) valued ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> fail ("unexpected argument " ^ a)
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  match get "smoke-all" with
  | Some spec -> smoke_all spec
  | None ->
    let num k conv default =
      match get k with
      | None -> default
      | Some v -> (match conv v with Some x -> x | None -> fail ("bad --" ^ k))
    in
    let name =
      match get "workload" with
      | Some n when List.mem n workload_names -> n
      | Some n -> fail ("unknown workload " ^ n)
      | None -> fail "missing --workload"
    in
    let seed = num "seed" int_of_string_opt 1 in
    let seconds = num "seconds" float_of_string_opt 10.0 in
    let trace = num "trace" (function "0" -> Some false | "1" -> Some true | _ -> None) false in
    let jobs =
      Option.map
        (fun v ->
          match int_of_string_opt v with
          | Some j when j >= 1 -> j
          | _ -> fail "bad --jobs")
        (get "jobs")
    in
    let o =
      run ?jobs ~name ~seed ~seconds ~trace ~smoke:(get "smoke" <> None)
        ~trace_out:(get "trace-out") ~folded_out:(get "folded-out") ()
    in
    let metrics =
      if trace then Option.value ~default:[] o.per_layer else o.end_to_end
    in
    print_endline (Json.to_string o.detail);
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool (o.failed = 0)); ("attempted", Json.Int o.attempted);
              ("failed", Json.Int o.failed); ("metrics", metrics_json metrics) ]));
    exit (if o.failed = 0 then 0 else 1)
