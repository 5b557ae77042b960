(* The hft-bench/1 matrix: one cell per (bench, flow), timed and counted
   so every commit has a comparable perf record. *)

open Hft_util
module Ledger = Hft_obs.Ledger
module Registry = Hft_obs.Registry

let header =
  [ "bench"; "flow"; "synth ms"; "atpg ms"; "fsim ms"; "podem btk";
    "fsim events" ]

(* A campaign leg and the counters every leg reports, read before the
   next leg resets the registry. *)
type leg = {
  c : Flow.campaign;
  backtracks : int;
  events : int;
  waterfall : Json.t;
}

let ms x = Float.round (1e5 *. x) /. 100.0
let ints = List.map (fun (k, n) -> (k, Json.Int n))

let coverages l =
  [ ("atpg_coverage", Json.Float (Hft_gate.Seq_atpg.fault_coverage l.c.c_atpg));
    ("fsim_coverage", Json.Float (Hft_gate.Fsim.coverage l.c.c_fsim)) ]

let counters l =
  ints
    [ ("faults", List.length l.c.c_faults); ("podem_backtracks", l.backtracks);
      ("fsim_events", l.events) ]
  @ coverages l

let measure_cell ~width ~sample ~naive ~jobs bench flow_kind g =
  (* Fresh registry and trace per cell, so its counters belong to one
     (bench, flow) pair. *)
  Hft_obs.reset ();
  let flow = Flow.flow_kind_to_string flow_kind in
  let t0 = Unix.gettimeofday () in
  let r = Flow.synthesize ~width flow_kind g in
  let t_synth = Unix.gettimeofday () -. t0 in
  let leg ?jobs ~guided () =
    let c =
      Flow.test_campaign
        ~strategy:(if naive then Flow.Naive else Flow.Fast)
        ~backtrack_limit:20 ~max_frames:2 ~sample ~seed:2024 ~n_patterns:64
        ~guided ?jobs r
    in
    { c; backtracks = Registry.count "hft.podem.backtracks";
      events = Registry.count "hft.fsim.events";
      waterfall = Ledger.waterfall_json () }
  in
  (* The cell's own fields come from the unguided leg, so they stay
     comparable with every earlier record. *)
  let u = leg ~guided:false () in
  let snapshot = Registry.snapshot () and unguided = Ledger.outcomes () in
  (* The guided leg (the naive strategy ignores guidance), with the
     classes whose verdicts contradict the unguided leg's. *)
  let guided =
    if naive then []
    else begin
      Hft_obs.reset ();
      let l = leg ~guided:true () in
      let outcomes = Ledger.outcomes () in
      let flips =
        Hashtbl.fold
          (fun f k1 n ->
            match Hashtbl.find_opt outcomes f with
            | Some k2 when Ledger.contradicts k1 k2 -> n + 1
            | _ -> n)
          unguided 0
      in
      [ ("guided",
         Json.Obj
           ((("wall_ms_atpg", Json.Float (ms l.c.c_t_atpg))
             :: ("podem_backtracks", Json.Int l.backtracks) :: coverages l)
            @ ints
                [ ("static_untestable",
                   Registry.count "hft.podem.static_untestable");
                  ("guided_cuts", Registry.count "hft.podem.guided_cuts");
                  ("verdict_flips", flips) ]
            @ [ ("waterfall", l.waterfall) ])) ]
    end
  in
  (* The unguided leg again at each domain count: all but the wall time
     and the scheduler telemetry must match the cell bit for bit.  The
     speedup is the 1-domain leg's wall time over the largest count's. *)
  let legs =
    List.map
      (fun j ->
        Hft_obs.reset ();
        (j, leg ~jobs:j ~guided:false ()))
      jobs
  in
  let jobs_matrix =
    let wall j = Option.map (fun l -> l.c.c_t_atpg) (List.assoc_opt j legs) in
    let jmax = List.fold_left max 1 jobs in
    if legs = [] then []
    else
      ("jobs_matrix",
       Json.List
         (List.map
            (fun (j, l) ->
              Json.Obj
                ((("jobs", Json.Int j)
                  :: ("wall_ms_atpg", Json.Float (ms l.c.c_t_atpg))
                  :: counters l)
                 @ [ ("waterfall", l.waterfall);
                     ("parallel", Hft_par.Stats.to_json l.c.c_par) ]))
            legs))
      ::
      (match (wall 1, wall jmax) with
       | Some w1, Some wn when jmax > 1 && wn > 0.0 ->
         [ ("speedup", Json.Float (Float.round (100.0 *. w1 /. wn) /. 100.0)) ]
       | _ -> [])
  in
  let t_atpg = u.c.c_t_atpg and t_fsim = u.c.c_t_fsim in
  let d = r.report in
  let cell =
    Json.Obj
      ([ ("bench", Json.String bench); ("flow", Json.String flow);
         ("wall_ms",
          Json.Obj
            [ ("synth", Json.Float (ms t_synth));
              ("atpg", Json.Float (ms t_atpg));
              ("fsim", Json.Float (ms t_fsim));
              ("total", Json.Float (ms (t_synth +. t_atpg +. t_fsim))) ]) ]
       @ counters u
       @ [ ("patterns_stored", Json.Int u.c.c_patterns_stored);
           ("waterfall", u.waterfall);
           ("strategy", Json.String (if naive then "naive" else "fast"));
           ("report",
            Json.Obj
              (ints
                 [ ("regs", d.n_registers); ("scan_regs", d.n_scan_registers);
                   ("test_regs", d.n_test_registers);
                   ("loops", d.datapath_loops) ]
               @ [ ("area_overhead", Json.Float d.area_overhead);
                   ("sessions", Json.Int d.test_sessions) ]));
           ("counters", Hft_obs.Export.metrics_json ~snapshot ());
           ("parallel", Hft_par.Stats.to_json u.c.c_par) ]
       @ guided @ jobs_matrix)
  in
  ( cell,
    [ bench; flow ]
    @ List.map
        (fun t -> Printf.sprintf "%.2f" (1e3 *. t))
        [ t_synth; t_atpg; t_fsim ]
    @ List.map string_of_int [ u.backtracks; u.events ] )

let run ~quick ~width ~naive ~jobs =
  Hft_obs.enabled := true;
  let names =
    if quick then [ "tseng"; "diffeq" ]
    else List.map fst (Hft_cdfg.Bench_suite.all ())
  in
  let sample = if quick then 40 else 20 in
  let cells, rows =
    List.split
      (List.concat_map
         (fun name ->
           let g = Hft_cdfg.Bench_suite.by_name name in
           List.map
             (fun (_, kind) ->
               measure_cell ~width ~sample ~naive ~jobs name kind g)
             Flow.flow_kinds)
         names)
  in
  ( Json.Obj
      [ ("schema", Json.String "hft-bench/1");
        ("created_unix", Json.Float (Unix.time ()));
        ("width", Json.Int width); ("quick", Json.Bool quick);
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("results", Json.List cells) ],
    rows )
