(* hft: high-level synthesis for testability, command-line driver.

     hft synth   --bench ewf --flow partial-scan [--width 8] [--trace]
     hft analyze --bench diffeq
     hft atpg    --bench tseng [--sample 25] [--jobs 4]
     hft bist    --bench diffeq [--patterns 1024]
     hft lint    --bench fig1b [--flow partial-scan] [--json]
     hft report  --bench fig1b [--flow partial-scan] [--top 10] [--json]
                 [--ledger-out tape.jsonl [--resume]]
     hft report  --journal-in tape.jsonl [--json]
     hft profile --bench fig1b [--jobs 4] [--folded-out stacks.txt] [--json]
     hft watch   tape.jsonl [--no-follow]
     hft fuzz    [--seed 1] [--trials 32] [--corpus DIR [--resume]] [--json]
     hft list

   Every subcommand accepts --trace / --metrics / --metrics-json
   (observability report after the run), --gc-stats and --trace-out
   FILE (Chrome trace-event JSON); report and profile also write the
   campaign tape (--ledger-out FILE) and resume from it (--resume),
   report reads it back offline (--journal-in FILE), and `hft watch`
   follows it.
   Timing diagnostics go to stderr so piped --json output stays
   parseable. *)

open Cmdliner
open Hft_cdfg
open Hft_core

let bench_names = List.map fst (Bench_suite.all ())

(* Bench names arrive as free strings so unknown names are invalid
   input (exit 2, an error object) instead of an uncaught exception. *)
let resolve_bench ?(extra = []) name =
  match List.assoc_opt name (Bench_suite.all ()) with
  | Some g -> `Bench g
  | None ->
    (match List.assoc_opt name extra with
     | Some v -> v
     | None ->
       Hft_robust.Validation.fail ~site:"--bench"
         ~hint:
           ("known: " ^ String.concat ", " (bench_names @ List.map fst extra))
         (Printf.sprintf "unknown benchmark '%s'" name))

let bench_graph ?extra name =
  match resolve_bench ?extra name with
  | `Bench g -> g
  | _ -> assert false

let bench_arg =
  let doc =
    Printf.sprintf "Benchmark behaviour (%s)." (String.concat ", " bench_names)
  in
  Arg.(required & opt (some string) None
       & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

(* Widths, fault samples, pattern, domain, table-row and trial counts
   and step budgets below 1, and seconds that are not finite or not
   above 0, are bad input: rejected while the arguments are read, before
   any work, with exit 2 and an invalid-input object naming the flag. *)
let count flag n =
  if n < 1 then
    Hft_robust.Validation.fail ~site:flag ~hint:"pass 1 or more"
      (Printf.sprintf "%s %d is below 1" flag n);
  n

let seconds flag s =
  if not (Float.is_finite s && s > 0.0) then
    Hft_robust.Validation.fail ~site:flag
      ~hint:"pass a finite number of seconds above 0"
      (Printf.sprintf "%s %g is not a finite time above 0" flag s);
  s

let at_least_one flag arg = Term.(const (count flag) $ arg)

(* An option that --journal-in must reject when given: whether it was
   given, and its value ([default] when absent, as --help shows),
   checked by [check]. *)
let knob ?(check = Fun.id) default parse arg_info =
  Term.(const (function None -> (false, default) | Some v -> (true, check v))
        $ Arg.(value & opt (some' ~none:default parse) None arg_info))

let width_knob =
  knob ~check:(count "--width") 8 Arg.int
    (Arg.info [ "w"; "width" ] ~docv:"BITS" ~doc:"Data-path width.")

let width_arg = Term.(const snd $ width_knob)

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit the data path as Graphviz DOT.")

(* ------------------------------------------------------------------ *)
(* Observability plumbing shared by every subcommand.                 *)

type obs_opts = {
  trace : bool;
  metrics : bool;
  metrics_json : bool;
  trace_out : string option;
  gc_stats : bool;
}

let obs_term =
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the nested span tree of the run after the report.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the metric registry as a table after the run.")
  in
  let metrics_json =
    Arg.(value & flag
         & info [ "metrics-json" ]
             ~doc:"Print the metric registry as one JSON object after the run.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the span tree as a Chrome trace-event JSON file \
                   (load in chrome://tracing or Perfetto).")
  in
  let gc_stats =
    Arg.(value & flag
         & info [ "gc-stats" ]
             ~doc:"Fold per-phase GC/allocation deltas (minor/major words, \
                   compactions) into span attributes.")
  in
  Term.(const (fun trace metrics metrics_json trace_out gc_stats ->
            { trace; metrics; metrics_json; trace_out; gc_stats })
        $ trace $ metrics $ metrics_json $ trace_out $ gc_stats)

(* Each observability flag and whether it was given. *)
let obs_flags obs =
  [ ("--trace", obs.trace); ("--metrics", obs.metrics);
    ("--metrics-json", obs.metrics_json);
    ("--trace-out", obs.trace_out <> None);
    ("--gc-stats", obs.gc_stats) ]

(* An output path that cannot be opened for writing is bad input (exit
   2) caught before the run, not an engine failure (exit 1) after it.
   The file is created if absent but left untruncated until written. *)
let check_writable (flag, file) =
  match file with
  | None -> ()
  | Some file ->
    (match open_out_gen [ Open_wronly; Open_creat ] 0o666 file with
     | oc -> close_out oc
     | exception Sys_error msg -> Hft_robust.Validation.fail ~site:flag msg)

(* Run a subcommand body under the observability sink.  Tracing turns
   on when any obs flag is given; the trace/metrics report prints to
   stdout (the user asked for it), while the elapsed-time diagnostic
   always goes to stderr so `... --json | jq` stays clean.  The body's
   result is returned so callers can turn it into an exit status
   *after* the reports are flushed. *)
let with_obs ~cmd ?(outputs = []) obs f =
  List.iter check_writable (("--trace-out", obs.trace_out) :: outputs);
  if obs.trace || obs.metrics || obs.metrics_json || obs.trace_out <> None
  then Hft_obs.enabled := true;
  if obs.gc_stats then Hft_obs.Config.gc_stats := true;
  let t0 = Unix.gettimeofday () in
  let r = f () in
  if obs.trace then print_string (Hft_obs.Span.render ());
  if obs.metrics then print_string (Hft_obs.Export.metrics_table ());
  if obs.metrics_json then
    print_endline (Hft_util.Json.to_string (Hft_obs.Export.metrics_json ()));
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc
        (Hft_util.Json.to_string (Hft_obs.Export.chrome_trace ()));
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "hft %s: wrote Chrome trace %s\n%!" cmd file)
    obs.trace_out;
  Printf.eprintf "hft %s: %.1f ms\n%!" cmd
    (1e3 *. (Unix.gettimeofday () -. t0));
  r

(* Figure 1's CDFG doubles as a (tiny) synthesisable bench, so the
   traceable flows cover the paper's worked example too. *)
let fig1_extra () =
  let g = Paper_fig1.graph () in
  [ ("fig1b", `Bench g); ("fig1c", `Bench g) ]

let flow_knob =
  knob Flow.Conventional (Arg.enum Flow.flow_kinds)
    (Arg.info [ "f"; "flow" ] ~docv:"FLOW"
       ~doc:"Synthesis flow: conventional, partial-scan or bist.")

let flow_arg = Term.(const snd $ flow_knob)

let no_guided_arg =
  Arg.(value & flag
       & info [ "no-guided" ]
           ~doc:"Disable static-analysis ATPG guidance (restores the \
                 historical search bit for bit).")

let synth_cmd =
  let run bench flow width dot obs =
    with_obs ~cmd:"synth" obs @@ fun () ->
    let g = bench_graph ~extra:(fig1_extra ()) bench in
    let r = Flow.synthesize ~width flow g in
    if dot then print_string (Hft_rtl.Datapath.to_dot r.Flow.datapath)
    else begin
      print_string (Hft_rtl.Datapath.pp r.Flow.datapath);
      Hft_util.Pretty.print ~header:Flow.report_header
        [ Flow.report_row r.Flow.report ]
    end
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesise a benchmark with a DFT flow")
    Term.(const run $ bench_arg $ flow_arg $ width_arg $ dot_arg $ obs_term)

let analyze_cmd =
  let run bench width obs =
    with_obs ~cmd:"analyze" obs @@ fun () ->
    let g = bench_graph bench in
    Printf.printf "%s: %d ops, %d vars, %d states\n" bench (Graph.n_ops g)
      (Graph.n_vars g)
      (List.length (Graph.state_vars g));
    let loops = Loops.enumerate g in
    Printf.printf "CDFG loops: %d\n" (List.length loops);
    let cls = Testability.analyze g in
    Printf.printf "hard variables (behavioural): %d\n"
      (List.length (Testability.hard_variables g cls));
    let r = Flow.synthesize_conventional ~width g in
    let s = Hft_rtl.Sgraph.of_datapath r.Flow.datapath in
    Printf.printf "conventional data path: %d regs, %d fus, %d loops, %d self-loops\n"
      (Hft_rtl.Datapath.n_regs r.Flow.datapath)
      (Hft_rtl.Datapath.n_fus r.Flow.datapath)
      (Hft_rtl.Sgraph.n_nontrivial_loops s)
      (List.length (Hft_rtl.Sgraph.self_loop_regs s));
    print_string
      (Hft_rtl.Testability.pp_report r.Flow.datapath
         (Hft_rtl.Testability.analyze s))
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Testability analysis of a benchmark")
    Term.(const run $ bench_arg $ width_arg $ obs_term)

let atpg_cmd =
  let sample_arg =
    at_least_one "--sample"
      Arg.(value & opt int 25
           & info [ "sample" ] ~docv:"N" ~doc:"Keep one fault in N.")
  in
  let jobs_arg =
    at_least_one "--jobs"
      Arg.(value & opt int 1
           & info [ "j"; "jobs" ] ~docv:"N"
               ~doc:"Shard the ATPG fault campaign over N OCaml domains \
                     (at most 64).  Coverage, verdicts and ledger \
                     waterfalls are bit-identical at any N.")
  in
  let run bench width sample no_guided jobs obs =
    with_obs ~cmd:"atpg" obs @@ fun () ->
    let g = bench_graph ~extra:(fig1_extra ()) bench in
    let conv = Flow.synthesize_conventional ~width g in
    let scan = Flow.synthesize_for_partial_scan ~width g in
    (* One rng for both legs: the partial-scan sample continues the
       no-DFT draw. *)
    let rng = Hft_util.Rng.create 2024 in
    let atpg tag r =
      let nl, faults, scanned = Flow.expand_and_sample ~rng ~sample r in
      let guidance =
        if no_guided then None else Some Hft_analysis.Guidance.provide
      in
      let stats =
        Hft_scan.Partial_scan.atpg ~backtrack_limit:50 ~max_frames:3
          ?guidance ~jobs nl ~faults ~scanned
      in
      Printf.printf "%-14s %4d faults  coverage %6s  backtracks %7d  scan cells %d\n"
        tag (List.length faults)
        (Hft_util.Pretty.pct (Hft_gate.Seq_atpg.fault_coverage stats))
        stats.Hft_gate.Seq_atpg.backtracks (List.length scanned)
    in
    atpg "no DFT" conv;
    atpg "partial scan" scan
  in
  Cmd.v
    (Cmd.info "atpg"
       ~doc:
         "Gate-level sequential ATPG comparison: no DFT vs partial scan")
    Term.(const run $ bench_arg $ width_arg $ sample_arg $ no_guided_arg
          $ jobs_arg $ obs_term)

let bist_cmd =
  let patterns_arg =
    at_least_one "--patterns"
      Arg.(value & opt int 1024
           & info [ "patterns" ] ~docv:"N"
               ~doc:"Pseudorandom patterns per block.")
  in
  let run bench width patterns obs =
    with_obs ~cmd:"bist" obs @@ fun () ->
    let g = bench_graph bench in
    let r = Flow.synthesize_for_bist ~width g in
    Hft_util.Pretty.print ~header:Flow.report_header
      [ Flow.report_row r.Flow.report ];
    let report =
      Hft_bist.Run.run ~checkpoints:[ patterns / 4; patterns ]
        ~source:Hft_bist.Run.Lfsr_source ~seed:3 r.Flow.datapath
    in
    List.iter
      (fun b ->
        Printf.printf "block fu%d: %d gates, %d faults, final coverage %s\n"
          b.Hft_bist.Run.fu b.Hft_bist.Run.n_gates b.Hft_bist.Run.n_faults
          (Hft_util.Pretty.pct
             (match List.rev b.Hft_bist.Run.coverage with
              | (_, c) :: _ -> c
              | [] -> 0.0)))
      report.Hft_bist.Run.blocks;
    Printf.printf "total coverage: %s\n"
      (Hft_util.Pretty.pct report.Hft_bist.Run.total_coverage)
  in
  Cmd.v (Cmd.info "bist" ~doc:"BIST synthesis and pseudorandom campaign")
    Term.(const run $ bench_arg $ width_arg $ patterns_arg $ obs_term)

let lint_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as machine-readable JSON.")
  in
  let cc_arg =
    Arg.(value & opt int Hft_lint.Rules.default.Hft_lint.Rules.cc_threshold
         & info [ "cc-threshold" ] ~docv:"N"
             ~doc:"SCOAP controllability threshold (HFT-L007).")
  in
  let co_arg =
    Arg.(value & opt int Hft_lint.Rules.default.Hft_lint.Rules.co_threshold
         & info [ "co-threshold" ] ~docv:"N"
             ~doc:"SCOAP observability threshold (HFT-L008).")
  in
  let fig1 which () =
    let g, d = Fig1_exp.datapath which in
    (Hft_lint.Rules.ctx ~graph:g d, "fig1-binding")
  in
  let run bench flow width json cc co obs =
    let has_errors =
      with_obs ~cmd:"lint" obs @@ fun () ->
      let ctx, flow_name =
        match
          resolve_bench
            ~extra:[ ("fig1b", `Fig1 Fig1_exp.B); ("fig1c", `Fig1 Fig1_exp.C) ]
            bench
        with
        | `Fig1 which -> fig1 which ()
        | `Bench g ->
          let r = Flow.synthesize ~width flow g in
          ( Hft_lint.Rules.ctx ~graph:r.Flow.graph r.Flow.datapath,
            Flow.flow_kind_to_string flow )
      in
      let config =
        { Hft_lint.Rules.default with
          Hft_lint.Rules.cc_threshold = cc;
          Hft_lint.Rules.co_threshold = co }
      in
      let diags = Hft_lint.Engine.run ~config ctx in
      let datapath = ctx.Hft_lint.Rules.datapath in
      if json then
        print_endline
          (Hft_util.Json.to_string
             (Hft_lint.Report.to_json
                ~meta:
                  [ ("bench", Hft_util.Json.String bench);
                    ("flow", Hft_util.Json.String flow_name) ]
                ~datapath diags))
      else print_string (Hft_lint.Report.to_table ~datapath diags);
      (* The exit-status-relevant summary goes to stderr so `--json |
         jq` pipelines see only the report on stdout. *)
      Printf.eprintf "hft lint: %s (%s, %s)\n%!"
        (Hft_lint.Diagnostic.summary diags)
        bench flow_name;
      Hft_lint.Diagnostic.has_errors diags
    in
    if has_errors then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static testability analysis: SCOAP metrics and design-rule checks \
          (exit 1 on error findings; benches include fig1b/fig1c, the two \
          Figure 1 bindings)")
    Term.(const run $ bench_arg $ flow_arg $ width_arg $ json_arg $ cc_arg
          $ co_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* hft report: run a test campaign with the flight recorder on and    *)
(* present the forensics — the coverage waterfall (where every        *)
(* collapsed fault class ended up) and the most expensive faults.     *)

(* A [Sys_error] message naming [file].  The open's message names the
   path; a read that fails after the open (a directory opens, then
   reads "Is a directory") does not. *)
let naming_path file msg =
  if String.starts_with ~prefix:file msg then msg else file ^ ": " ^ msg

(* Read back a --ledger-out campaign tape for an offline report or
   profile; an unreadable or malformed tape is bad input (exit 2). *)
let load_tape file =
  let fail msg = Hft_robust.Validation.fail ~site:"--journal-in" msg in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> fail (naming_path file msg)
  | text ->
    (match Hft_obs.Ledger.of_jsonl text with
     | Ok tape -> tape
     | Error msg -> fail (file ^ ": " ^ msg))

(* A live campaign of [bench] at the fixed forensics knobs, under the
   observability sink, handed to [k]: [tape] is the campaign tape
   (--ledger-out) and [resume] continues it. *)
let live_campaign ~cmd ?(outputs = []) ?guided ?jobs ~tape ~resume bench flow
    width sample obs k =
  if resume && tape = None then
    Hft_robust.Validation.fail ~site:"--resume"
      ~hint:"pass --ledger-out FILE, the tape to resume from"
      "--resume needs the campaign tape";
  match bench with
  | None ->
    Hft_robust.Validation.fail ~site:"--bench"
      ~hint:
        ("pass a bench: "
        ^ String.concat ", " (bench_names @ List.map fst (fig1_extra ())))
      "--bench is required to run a campaign"
  | Some bench ->
    with_obs ~cmd ~outputs:(("--ledger-out", tape) :: outputs) obs
    @@ fun () ->
    let g = bench_graph ~extra:(fig1_extra ()) bench in
    k (Forensics.run ?guided ?jobs ?tape ~resume ~bench ~width ~sample flow g)

(* --bench is optional to cmdliner, so that a missing one is invalid
   input (exit 2, an error object) like an unknown one. *)
let forensics_bench_arg note =
  let doc =
    Printf.sprintf "Benchmark behaviour (%s).  %s"
      (String.concat ", " bench_names) note
  in
  Arg.(value & opt (some string) None
       & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let forensics_sample_arg =
  knob ~check:(count "--sample") 1 Arg.int
    (Arg.info [ "sample" ] ~docv:"N" ~doc:"Keep one fault in N.")

let forensics_top_arg =
  at_least_one "--top"
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K"
             ~doc:"Rows in the most-expensive-fault-classes table.")

let ledger_out_arg =
  Arg.(value & opt (some string) None
       & info [ "ledger-out" ] ~docv:"FILE"
           ~doc:"Write the campaign tape (hft-ledger/1 JSONL) as the \
                 campaign runs: every test with its vectors and every \
                 fault-class ledger row, flushed as it commits.  Readable \
                 back with --journal-in, finished or not, and resumable \
                 with --resume.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Continue the campaign on the --ledger-out tape: its \
                 committed tests and classes are restored, not redone, \
                 and the outcomes are bit-identical to an uninterrupted \
                 run.")

let report_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as machine-readable JSON.")
  in
  let journal_in_arg =
    Arg.(value & opt (some string) None
         & info [ "journal-in" ] ~docv:"FILE"
             ~doc:"Offline mode: render the report from a --ledger-out \
                   campaign tape instead of running a campaign; --bench is \
                   not needed.  The report is exact, expensive table \
                   included, and a killed campaign's tape renders what it \
                   committed.")
  in
  (* The tape named by --journal-in when given (no campaign runs), else
     a live campaign.  A flag that only shapes a live campaign would be
     silently ignored next to --journal-in, so it is bad input, named
     before the tape is read. *)
  let run bench (flow_given, flow) (width_given, width)
      (sample_given, sample) top json no_guided journal_in tape resume obs =
    let print src = print_string (Forensics.report ~json ~top src) in
    match journal_in with
    | Some file ->
      Option.iter
        (fun (flag, _) ->
          Hft_robust.Validation.fail ~site:flag
            ~hint:"drop it, or drop --journal-in to run a campaign"
            (flag ^ " applies to a live campaign, not to --journal-in"))
        (List.find_opt snd
           ([ ("--bench", bench <> None); ("--flow", flow_given);
              ("--width", width_given); ("--sample", sample_given);
              ("--no-guided", no_guided); ("--ledger-out", tape <> None);
              ("--resume", resume) ]
           @ obs_flags obs));
      print (Forensics.Tape (file, load_tape file))
    | None ->
      live_campaign ~cmd:"report" ~guided:(not no_guided) ~tape ~resume bench
        flow width sample obs
      @@ fun l -> print (Forensics.Live l)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a test campaign with the flight recorder on and report the \
          fault forensics: coverage waterfall (total, collapsed, dropped, \
          PODEM-detected, aborted, untestable) and the most expensive fault \
          classes (benches include fig1b/fig1c); --ledger-out tapes the \
          campaign as it runs and --resume continues an interrupted tape; \
          with --journal-in, rebuild the report offline from a tape")
    Term.(const run
          $ forensics_bench_arg "Required unless --journal-in is given."
          $ flow_knob $ width_knob $ forensics_sample_arg $ forensics_top_arg
          $ json_arg $ no_guided_arg $ journal_in_arg $ ledger_out_arg
          $ resume_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* hft profile: where did the campaign's time go?  It runs a campaign *)
(* (same knobs as report) and attributes wall time two ways:          *)
(* per-phase self time from the span tree, and per-class charged cost *)
(* from the ledger (the same table report prints, bit for bit), with  *)
(* one line summarising the scheduler.  A tape records no phase       *)
(* times, so there is no offline profile: report --journal-in ranks   *)
(* its classes.                                                       *)

let profile_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the profile as machine-readable JSON.")
  in
  let jobs_arg =
    at_least_one "--jobs"
      Arg.(value & opt int 1
           & info [ "j"; "jobs" ] ~docv:"N"
               ~doc:"Domain count for the ATPG phase (see atpg --jobs).")
  in
  let folded_out_arg =
    Arg.(value & opt (some string) None
         & info [ "folded-out" ] ~docv:"FILE"
             ~doc:"Write folded stacks (one 'a;b;c <microseconds>' line per \
                   span path, flamegraph.pl input) for the run.")
  in
  let run bench flow width sample top jobs folded_out json tape resume obs =
    live_campaign ~cmd:"profile" ~outputs:[ ("--folded-out", folded_out) ]
      ~jobs ~tape ~resume bench flow width sample obs
    @@ fun l ->
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc (Hft_obs.Export.folded_stacks ());
        close_out oc;
        Printf.eprintf "hft profile: wrote folded stacks %s\n%!" file)
      folded_out;
    print_string (Forensics.profile ~json ~top l)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Attribute a campaign's wall time: per-phase self time from the \
          span tree, a one-line scheduler summary (jobs, waves, tasks, \
          steals, speculation hits and misses, utilization), and the top \
          classes by charged cost (byte-identical to report's table).  \
          --folded-out writes flamegraph.pl input; --ledger-out and \
          --resume tape the campaign as report does.")
    Term.(const run $ forensics_bench_arg "Required." $ flow_arg $ width_arg
          $ Term.(const snd $ forensics_sample_arg) $ forensics_top_arg
          $ jobs_arg $ folded_out_arg $ json_arg $ ledger_out_arg $ resume_arg
          $ obs_term)

(* ------------------------------------------------------------------ *)
(* hft watch: follow a campaign tape as a terminal dashboard.         *)

let watch_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TAPE"
             ~doc:"hft-ledger/1 campaign tape (a --ledger-out path), live \
                   or finished.")
  in
  let no_follow_arg =
    Arg.(value & flag
         & info [ "no-follow" ]
             ~doc:"Render the tape's committed state once and exit instead \
                   of following it to its end marker.")
  in
  let interval_arg =
    Term.(const (seconds "--interval")
          $ Arg.(value & opt float 0.5
                 & info [ "interval" ] ~docv:"SECS"
                     ~doc:"Poll interval while following."))
  in
  let run file no_follow interval =
    let interval = Float.max 0.05 interval in
    let tty = Unix.isatty Unix.stdout in
    (* Every poll re-reads the tape by path, so a --resume compaction
       renamed over it is followed.  A watch is often started before the
       campaign: an absent file, or one with no complete line yet, is
       waited for (bounded, so a typo does not hang forever) unless a
       one-shot render was asked for. *)
    let hint = "pass an hft-ledger/1 campaign tape (a --ledger-out path)" in
    let read () =
      (* Looked up before the read, so a tape created meanwhile is not
         taken for a path that exists but does not read (a directory),
         which is no tape still to come. *)
      let absent = not (Sys.file_exists file) in
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error msg when absent -> Error msg
      | exception Sys_error msg ->
        Hft_robust.Validation.fail ~site:"TAPE" ~hint (naming_path file msg)
      | text when not (String.contains text '\n') ->
        Error (file ^ ": no complete line yet")
      | text ->
        (match Hft_obs.Ledger.of_jsonl text with
         | Ok tape -> Ok tape
         | Error msg ->
           Hft_robust.Validation.fail ~site:"TAPE" (file ^ ": " ^ msg))
    in
    let rec loop ~waits ~rows watcher =
      match read () with
      | Error msg when no_follow || waits >= 600 ->
        Hft_robust.Validation.fail ~site:"TAPE" ~hint msg
      | Error _ ->
        Unix.sleepf interval;
        loop ~waits:(waits + 1) ~rows watcher
      | Ok tape ->
        let w, text =
          Forensics.watch watcher ~now:(Unix.gettimeofday ()) file tape
        in
        let last = no_follow || tape.Hft_obs.Ledger.tp_finished in
        let n = List.length tape.Hft_obs.Ledger.tp_rows in
        if tty then begin
          (* Home the cursor and erase below: in-place update without
             scrollback spam. *)
          print_string "\027[H\027[J";
          print_string text;
          flush stdout
        end
        else if last then print_string text
        else if n <> rows then
          (* Non-TTY live tail: the status line whenever rows land keeps
             logs readable; the full view prints once at the end. *)
          print_endline (List.hd (String.split_on_char '\n' text));
        if not last then begin
          Unix.sleepf interval;
          loop ~waits ~rows:n (Some w)
        end
    in
    if tty then print_string "\027[2J";
    loop ~waits:0 ~rows:(-1) None
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Follow a campaign tape (report/profile --ledger-out) as a live \
          terminal dashboard: faults resolved and detected, rate and ETA, \
          then the coverage waterfall and the top expensive classes.  \
          Exits at the tape's end marker; --no-follow renders the \
          committed state once.")
    Term.(const run $ file_arg $ no_follow_arg $ interval_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (name, g) ->
        Printf.printf "%-11s %2d ops, %d states (%s)\n" name (Graph.n_ops g)
          (List.length (Graph.state_vars g))
          (String.concat ", "
             (List.map
                (fun (c, n) ->
                  Printf.sprintf "%d %s" n (Op.fu_class_to_string c))
                (Graph.op_profile g))))
      (Bench_suite.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark behaviours")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* fuzz: the continuous bandit-guided differential campaign.          *)

let fuzz_cmd =
  let run seed trials duration corpus resume step_budget json obs =
    let summary =
      with_obs ~cmd:"fuzz" obs @@ fun () ->
      let summary =
        Hft_fuzz.Campaign.run
          { Hft_fuzz.Campaign.c_seed = seed;
            c_trials = trials;
            c_duration = duration;
            c_corpus = corpus;
            c_resume = resume;
            c_step_budget = step_budget }
      in
      if json then
        print_endline
          (Hft_util.Json.to_string (Hft_fuzz.Campaign.summary_json summary))
      else begin
        Printf.printf
          "fuzz: %d trial(s) this run (%d total), stopped on %s\n"
          summary.Hft_fuzz.Campaign.y_trials_run
          summary.Hft_fuzz.Campaign.y_trials_total
          summary.Hft_fuzz.Campaign.y_stop;
        Printf.printf
          "  corpus %s: %d finding class(es), %d real (non-canary)\n" corpus
          summary.Hft_fuzz.Campaign.y_corpus_size
          summary.Hft_fuzz.Campaign.y_real_findings;
        Printf.printf "  this run: %d new, %d re-found, %d escalation(s)\n"
          summary.Hft_fuzz.Campaign.y_new_findings
          summary.Hft_fuzz.Campaign.y_refound
          summary.Hft_fuzz.Campaign.y_escalations;
        List.iter
          (fun a ->
            Printf.printf "  arm %-10s pulls %3d  reward %g\n"
              a.Hft_fuzz.Campaign.as_name a.Hft_fuzz.Campaign.as_pulls
              a.Hft_fuzz.Campaign.as_reward_sum)
          summary.Hft_fuzz.Campaign.y_arms
      end;
      summary
    in
    (* Canary findings are the regression arm doing its job; only a
       non-canary class is a real cross-engine disagreement. *)
    if summary.Hft_fuzz.Campaign.y_real_findings > 0 then exit 1
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Campaign seed.  Two runs with the same seed and trial \
                   budget produce identical findings, arm choices and \
                   corpus files.")
  in
  let trials_arg =
    at_least_one "--trials"
      Arg.(value & opt int 32
           & info [ "trials" ] ~docv:"N"
               ~doc:"Total committed trials to reach, including trials \
                     already in the state file when resuming.")
  in
  let duration_arg =
    Term.(const (Option.map (seconds "--duration"))
          $ Arg.(value & opt (some float) None
                 & info [ "duration" ] ~docv:"SECS"
                     ~doc:"Optional wall-clock budget.  Affects only when \
                           the campaign stops, never what a committed trial \
                           contains."))
  in
  let corpus_arg =
    Arg.(value & opt string "fuzz-corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Corpus directory: the crash-only campaign state tape \
                   plus one self-contained minimized reproducer JSON per \
                   finding class.")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Continue an interrupted campaign from the corpus state \
                   tape: committed trials replay into the bandit \
                   bit-identically and the interrupted trial re-runs.")
  in
  let step_budget_arg =
    at_least_one "--step-budget"
      Arg.(value & opt int Hft_fuzz.Oracle.default_step_budget
           & info [ "step-budget" ] ~docv:"STEPS"
               ~doc:"Deterministic per-engine-attempt deadline in search \
                     steps; an attempt that exhausts it becomes a finding.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the campaign summary as one JSON \
                                 object.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Continuous bandit-guided differential fuzz campaign (exit 1 when \
          a non-canary finding class exists; canary classes from the \
          regression arm are expected)")
    Term.(const run $ seed_arg $ trials_arg $ duration_arg $ corpus_arg
          $ resume_arg $ step_budget_arg $ json_arg $ obs_term)

(* Exit-code contract: 0 success, 1 engine failure (an exception out of
   a run, including chaos injections), 2 bad input or usage (typed
   validation diagnostics such as a corrupt --journal-in tape or an
   output path that cannot be opened, unknown benches, cmdliner parse
   errors).
   Uncaught errors print a single JSON object to stderr so `--json`
   pipelines reading stdout stay parseable. *)
let () =
  let info =
    Cmd.info "hft" ~version:"1.0.0"
      ~doc:"High-level synthesis for testability (DAC'96 survey reproduction)"
  in
  let group =
    Cmd.group info
      [ synth_cmd; analyze_cmd; atpg_cmd; bist_cmd; lint_cmd; report_cmd;
        profile_cmd; watch_cmd; list_cmd; fuzz_cmd ]
  in
  let error_json fields =
    Printf.eprintf "%s\n%!"
      (Hft_util.Json.to_string
         (Hft_util.Json.Obj [ ("error", Hft_util.Json.Obj fields) ]))
  in
  let code =
    try
      (* Inside the handler: a malformed HFT_CHAOS_* environment must hit
         the exit-2 invalid-input contract, not escape as a backtrace. *)
      Hft_robust.Chaos.of_env ();
      match Cmd.eval ~catch:false group with
      | c when c = Cmd.Exit.cli_error -> 2
      | c when c = Cmd.Exit.internal_error -> 1
      | c -> c
    with
    | Hft_robust.Validation.Invalid d ->
      (match Hft_robust.Validation.to_json d with
       | Hft_util.Json.Obj fields ->
         error_json (("kind", Hft_util.Json.String "invalid-input") :: fields)
       | j -> error_json [ ("kind", Hft_util.Json.String "invalid-input");
                           ("detail", j) ]);
      2
    | Hft_robust.Chaos.Injection { site; seq } ->
      error_json
        [ ("kind", Hft_util.Json.String "chaos-injection");
          ("site", Hft_util.Json.String site);
          ("seq", Hft_util.Json.Int seq) ];
      1
    | e ->
      error_json
        [ ("kind", Hft_util.Json.String "engine-failure");
          ("message", Hft_util.Json.String (Printexc.to_string e)) ];
      1
  in
  exit code
