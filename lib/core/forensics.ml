(* The hft-report/1 document, live or from a tape, and the live
   hft-profile/1 document. *)

open Hft_util
module Ledger = Hft_obs.Ledger
module Stats = Hft_par.Stats

type live = {
  bench : string;
  flow : Flow.flow_kind;
  guided : bool;
  jobs : int;
  resumed : string option;
  campaign : Flow.campaign;
}

type source = Live of live | Tape of string * Ledger.tape

let run ?(guided = true) ?(jobs = 1) ?tape ?(resume = false) ~bench ~width
    ~sample flow g =
  Hft_obs.enabled := true;
  Hft_obs.reset ();
  let r = Flow.synthesize ~width flow g in
  let campaign =
    Flow.test_campaign ~backtrack_limit:50 ~max_frames:3 ~sample ~seed:2024
      ~n_patterns:64 ~guided ~jobs ?tape ~resume r
  in
  { bench; flow; guided; jobs; campaign;
    resumed = (if resume then tape else None) }

(* What both documents read from either source: the outcome tallies, the
   test count and the [top] most expensive classes. *)
let ledger_view ~top = function
  | Live { campaign = c; _ } ->
    let rows = c.c_atpg.rows in
    ( Ledger.waterfall rows, List.length c.c_tests,
      Ledger.top_expensive ~k:top rows )
  | Tape (_, (t : Ledger.tape)) ->
    ( t.tp_waterfall, List.length t.tp_tests,
      Ledger.top_expensive ~k:top t.tp_rows )

(* A document is one JSON line (its schema, the source's fields, the
   expensive rows) or text ending with the expensive table. *)
let document ~json schema expensive (fields, text) =
  if json then
    Json.to_string
      (Json.Obj
         ((("schema", Json.String schema) :: fields)
          @ [ ("expensive", Ledger.expensive_json expensive) ]))
    ^ "\n"
  else text ^ Ledger.expensive_table expensive

let ints = List.map (fun (k, n) -> (k, Json.Int n))
let flow_name l = Flow.flow_kind_to_string l.flow

let bench_flow l =
  [ ("bench", Json.String l.bench); ("flow", Json.String (flow_name l)) ]

(* The waterfall table: the sampled universe when a campaign ran, the
   collapsed totals, the outcomes. *)
let waterfall_table ?sampled waterfall =
  let row stage (c, f) = [ stage; string_of_int c; string_of_int f ] in
  Pretty.render ~header:[ "stage"; "classes"; "faults" ]
    ((match sampled with
      | Some n -> [ [ "total (sampled)"; "-"; string_of_int n ] ]
      | None -> [])
     @ row "collapsed" (Ledger.totals waterfall)
       :: List.map (fun (k, cf) -> row k cf) waterfall)

let report ~json ~top src =
  let waterfall, tests, expensive = ledger_view ~top src in
  let count k = Hft_obs.Registry.count ("hft.podem." ^ k) in
  (* Per source: the JSON fields before the waterfall, between it and the
     test count, and after that; the text heading, sampled total and
     summary lines. *)
  let (ident, coverage, extras), (heading, sampled, summary) =
    match src with
    | Live ({ campaign = c; _ } as l) ->
      let atpg = Hft_gate.Seq_atpg.fault_coverage c.c_atpg
      and fsim = Hft_gate.Fsim.coverage c.c_fsim in
      let resumed =
        [ ("resumed_classes", c.c_resumed_classes);
          ("resumed_tests", c.c_resumed_tests) ]
      in
      let guidance = [ "static_untestable"; "guided_cuts"; "guided_decisions" ] in
      ( ( bench_flow l @ ints [ ("faults", List.length c.c_faults) ],
          [ ("coverage",
             Json.Obj [ ("atpg", Json.Float atpg); ("fsim", Json.Float fsim) ]) ],
          ints
            (("patterns_stored", c.c_patterns_stored)
             :: (if l.resumed = None then [] else resumed))
          @ [ ("guided", Json.Bool l.guided);
              ("guidance",
               Json.Obj (ints (List.map (fun k -> (k, count k)) guidance))) ] ),
        ( Printf.sprintf "%s, %s" l.bench (flow_name l),
          Some (List.length c.c_faults),
          Printf.sprintf
            "%d tests generated, %d pattern rows stored; coverage: atpg %s, \
             fsim %s\n"
            tests c.c_patterns_stored (Pretty.pct atpg) (Pretty.pct fsim)
          ^ Option.fold l.resumed ~none:"" ~some:(fun file ->
                Printf.sprintf "resumed: %d classes, %d tests restored from %s\n"
                  c.c_resumed_classes c.c_resumed_tests file)
          ^
          if l.guided then
            Printf.sprintf
              "guidance: %d class(es) proven untestable statically, %d \
               guided cut(s), %d guided decision(s)\n"
              (count "static_untestable") (count "guided_cuts")
              (count "guided_decisions")
          else "" ) )
    | Tape (file, _) ->
      let classes, faults = Ledger.totals waterfall in
      ( ( ("source", Json.String "ledger") :: ("file", Json.String file)
          :: ints [ ("classes", classes); ("faults", faults) ],
          [], [] ),
        ( Printf.sprintf "offline, ledger tape %s" file,
          None,
          Printf.sprintf "%d tests on tape\n" tests ) )
  in
  document ~json "hft-report/1" expensive
    ( ident
      @ (("waterfall", Ledger.waterfall_json waterfall) :: coverage)
      @ (("tests", Json.Int tests) :: extras),
      Printf.sprintf "coverage waterfall (%s):\n" heading
      ^ waterfall_table ?sampled waterfall
      ^ summary )

(* [hft watch]: a status line over the tape's report.  The rate is the
   faults resolved since the watcher's first look over the time since,
   on the watcher's own clock. *)
type watcher = { w_start : float; w_resolved : int }

let watch w ~now file (t : Ledger.tape) =
  let resolved = snd (Ledger.totals t.tp_waterfall) in
  let detected =
    List.fold_left
      (fun n (k, (_, f)) -> if Ledger.is_detection k then n + f else n)
      0 t.tp_waterfall
  in
  let n_faults =
    match List.assoc_opt "n_faults" t.tp_meta with
    | Some (Json.Int n) -> n
    | _ -> resolved
  in
  let w = Option.value w ~default:{ w_start = now; w_resolved = resolved } in
  let rate =
    let dt = now -. w.w_start and dn = resolved - w.w_resolved in
    if dt > 0.0 && dn > 0 then Some (float_of_int dn /. dt) else None
  in
  ( w,
    Printf.sprintf "%s: %d of %d faults resolved, %d detected (%s)%s\n"
      (if t.tp_finished then "finished" else "running")
      resolved n_faults detected
      (Pretty.pct
         (if n_faults > 0 then float_of_int detected /. float_of_int n_faults
          else 0.0))
      (match rate with
       | None -> ""
       | Some r when t.tp_finished -> Printf.sprintf ", %.1f faults/s" r
       | Some r ->
         Printf.sprintf ", %.1f faults/s, eta %.1f s" r
           (float_of_int (n_faults - resolved) /. r))
    ^ report ~json:false ~top:5 (Tape (file, t)) )

let profile ~json ~top l =
  let _, _, expensive = ledger_view ~top (Live l) in
  let self = Hft_obs.Export.self_times () and par = l.campaign.c_par in
  document ~json "hft-profile/1" expensive
    ( bench_flow l
      @ [ ("jobs", Json.Int l.jobs);
          ("self",
           Json.List
             (List.map
                (fun (name, s) ->
                  Json.Obj
                    [ ("name", Json.String name);
                      ("self_ms", Json.Float (Float.round (1e5 *. s) /. 100.0))
                    ])
                self));
          ("parallel", Stats.to_json par) ],
      Printf.sprintf "self-time attribution (%s, %s, jobs %d):\n" l.bench
        (flow_name l) l.jobs
      ^ Pretty.render ~header:[ "span"; "self ms" ]
          (List.map
             (fun (name, s) -> [ name; Printf.sprintf "%.2f" (1e3 *. s) ])
             self)
      ^ Printf.sprintf
          "\nscheduler: jobs %d · waves %d · tasks %d · spec hit/miss \
           %d/%d · inline %d · utilization %s\n"
          par.s_jobs par.s_waves par.s_tasks par.s_spec_hits
          par.s_spec_misses par.s_inline
          (Pretty.pct (Stats.utilization par)) )
