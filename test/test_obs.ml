(* Hft_obs: metrics registry, span tracing, export, and the flow-level
   instrumentation contract (each synthesize call yields one root span
   with named phase children). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* Every test owns the global switch + state; restore on exit so test
   order never matters. *)
let with_obs ?(on = true) f =
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
    (fun () -> Hft_obs.with_enabled on f)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  with_obs @@ fun () ->
  Hft_obs.Registry.incr "c";
  Hft_obs.Registry.incr "c" ~by:41;
  check_int "count accumulates by" 42 (Hft_obs.Registry.count "c");
  checkf "value is the sum" 42.0 (Hft_obs.Registry.value "c");
  check_int "absent metric reads 0" 0 (Hft_obs.Registry.count "nope");
  Hft_obs.Registry.reset ();
  check_int "reset clears" 0 (Hft_obs.Registry.count "c")

let test_gauge_and_timer () =
  with_obs @@ fun () ->
  Hft_obs.Registry.set "g" 3.0;
  Hft_obs.Registry.set "g" 1.5;
  checkf "gauge reads last" 1.5 (Hft_obs.Registry.value "g");
  Hft_obs.Registry.observe "t" 2.0;
  Hft_obs.Registry.observe "t" 4.0;
  (match Hft_obs.Registry.find "t" with
   | None -> Alcotest.fail "timer not registered"
   | Some s ->
     check_int "two observations" 2 s.Hft_obs.Metric.s_count;
     checkf "sum" 6.0 s.Hft_obs.Metric.s_sum;
     checkf "min" 2.0 s.Hft_obs.Metric.s_min;
     checkf "max" 4.0 s.Hft_obs.Metric.s_max;
     checkf "mean" 3.0 (Hft_obs.Metric.mean s))

let test_counter_last_cumulative () =
  with_obs @@ fun () ->
  Hft_obs.Registry.incr "c";
  Hft_obs.Registry.incr "c" ~by:41;
  match Hft_obs.Registry.find "c" with
  | None -> Alcotest.fail "counter not registered"
  | Some s ->
    checkf "last is the cumulative total, not the delta" 42.0
      s.Hft_obs.Metric.s_last;
    checkf "value agrees" 42.0 (Hft_obs.Registry.value "c")

let test_histogram_percentiles () =
  with_obs @@ fun () ->
  (* All-equal stream: every percentile is exactly the value (the
     bucket bound is clamped to [min, max]). *)
  for _ = 1 to 10 do
    Hft_obs.Registry.record "h" 5.0
  done;
  (match Hft_obs.Registry.find "h" with
   | None -> Alcotest.fail "histogram not registered"
   | Some s ->
     check "histogram kind" true (s.Hft_obs.Metric.s_kind = Hft_obs.Metric.Histogram);
     checkf "p50 exact on all-equal stream" 5.0
       (Hft_obs.Metric.percentile s 0.5);
     checkf "p95 exact on all-equal stream" 5.0
       (Hft_obs.Metric.percentile s 0.95));
  (* Spread stream: percentiles are monotone in q and bounded by the
     observed range. *)
  List.iter
    (fun v -> Hft_obs.Registry.observe "t" v)
    [ 0.001; 0.002; 0.004; 0.008; 0.016; 0.032; 0.064; 0.128; 0.256; 1.024 ];
  match Hft_obs.Registry.find "t" with
  | None -> Alcotest.fail "timer not registered"
  | Some s ->
    let p50 = Hft_obs.Metric.percentile s 0.5
    and p95 = Hft_obs.Metric.percentile s 0.95 in
    check "p50 <= p95" true (p50 <= p95);
    check "p50 within range" true
      (p50 >= s.Hft_obs.Metric.s_min && p50 <= s.Hft_obs.Metric.s_max);
    check "p95 within range" true
      (p95 >= s.Hft_obs.Metric.s_min && p95 <= s.Hft_obs.Metric.s_max)

let test_time_uses_clock () =
  with_obs @@ fun () ->
  let t = ref 100.0 in
  Hft_obs.Clock.with_source (fun () -> !t) @@ fun () ->
  let x = Hft_obs.Registry.time "t" (fun () -> t := !t +. 2.5; 7) in
  check_int "time returns the thunk's value" 7 x;
  checkf "elapsed from the override clock" 2.5 (Hft_obs.Registry.value "t")

let test_kind_mismatch () =
  with_obs @@ fun () ->
  ignore (Hft_obs.Registry.counter "k");
  check "re-registering under another kind is an error" true
    (match Hft_obs.Registry.timer "k" with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_tree () =
  with_obs @@ fun () ->
  let t = ref 0.0 in
  Hft_obs.Clock.with_source (fun () -> !t) @@ fun () ->
  Hft_obs.Span.with_ "outer" ~attrs:[ ("bench", "tseng") ] (fun () ->
      t := !t +. 0.5;
      Hft_obs.Span.with_ "inner" (fun () -> t := !t +. 0.25);
      Hft_obs.Span.add_attr_int "loops" 3);
  match Hft_obs.Span.roots () with
  | [ root ] ->
    check_str "root name" "outer" (Hft_obs.Span.name root);
    checkf "root elapsed" 0.75 (Hft_obs.Span.elapsed root);
    check "attrs in order" true
      (Hft_obs.Span.attrs root = [ ("bench", "tseng"); ("loops", "3") ]);
    check_int "subtree size" 2 (Hft_obs.Span.count root);
    (match Hft_obs.Span.children root with
     | [ inner ] ->
       check_str "child name" "inner" (Hft_obs.Span.name inner);
       checkf "child elapsed" 0.25 (Hft_obs.Span.elapsed inner)
     | _ -> Alcotest.fail "expected one child")
  | roots ->
    Alcotest.failf "expected one root span, got %d" (List.length roots)

let test_span_dup_attrs () =
  with_obs @@ fun () ->
  Hft_obs.Span.with_ "s" ~attrs:[ ("k", "old"); ("other", "x") ] (fun () ->
      Hft_obs.Span.add_attr "k" "new");
  match Hft_obs.Span.roots () with
  | [ root ] ->
    let attrs = Hft_obs.Span.attrs root in
    check "last write wins" true (List.assoc_opt "k" attrs = Some "new");
    check "other key kept" true (List.assoc_opt "other" attrs = Some "x");
    check_int "one entry per key" 2 (List.length attrs)
  | _ -> Alcotest.fail "expected one root span"

let test_span_exception_safe () =
  with_obs @@ fun () ->
  (try
     Hft_obs.Span.with_ "boom" (fun () ->
         Hft_obs.Span.with_ "inner" (fun () -> failwith "bang"))
   with Failure _ -> ());
  match Hft_obs.Span.roots () with
  | [ root ] ->
    check_str "raising span still recorded" "boom" (Hft_obs.Span.name root);
    check_int "inner attached too" 2 (Hft_obs.Span.count root);
    (* The stack fully unwound: a new span starts a new root. *)
    Hft_obs.Span.with_ "next" (fun () -> ());
    check_int "subsequent span is a fresh root" 2
      (List.length (Hft_obs.Span.roots ()))
  | _ -> Alcotest.fail "expected one root span"

let test_span_render () =
  with_obs @@ fun () ->
  Hft_obs.Span.with_ "a" (fun () -> Hft_obs.Span.with_ "b" (fun () -> ()));
  let s = Hft_obs.Span.render () in
  let has sub =
    let nh = String.length s and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub s i nn = sub || go (i + 1)) in
    go 0
  in
  check "root present" true (has "a  ");
  check "child indented" true (has "\n  b  ");
  check "durations in ms" true (has "ms")

let test_span_gc_attrs () =
  with_obs @@ fun () ->
  Hft_obs.Config.gc_stats := true;
  Fun.protect
    ~finally:(fun () -> Hft_obs.Config.gc_stats := false)
    (fun () ->
      Hft_obs.Span.with_ "alloc" (fun () ->
          (* Small allocations land in the minor heap, so the minor
             words delta is reliably positive. *)
          for i = 1 to 1000 do
            ignore (Sys.opaque_identity (ref i))
          done);
      match Hft_obs.Span.roots () with
      | [ root ] ->
        let attrs = Hft_obs.Span.attrs root in
        List.iter
          (fun k ->
            check ("span has " ^ k) true (List.mem_assoc k attrs))
          [ "gc_minor_w"; "gc_major_w"; "gc_compact" ];
        check "minor words positive" true
          (float_of_string (List.assoc "gc_minor_w" attrs) > 0.0)
      | _ -> Alcotest.fail "expected one root span")

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                      *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  with_obs ~on:false @@ fun () ->
  Hft_obs.Registry.incr "c" ~by:9;
  Hft_obs.Registry.observe "t" 1.0;
  let x = Hft_obs.Span.with_ "s" (fun () -> 5) in
  Hft_obs.Span.add_attr "k" "v";
  check_int "with_ still returns the value" 5 x;
  check_int "no metric recorded" 0 (Hft_obs.Registry.count "c");
  check "no snapshot entries" true (Hft_obs.Registry.snapshot () = []);
  check "no spans recorded" true (Hft_obs.Span.roots () = [])

(* ------------------------------------------------------------------ *)
(* Export round-trips                                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_json_roundtrip () =
  with_obs @@ fun () ->
  Hft_obs.Registry.incr "hft.podem.backtracks" ~by:17;
  Hft_obs.Registry.observe "hft.flow.time" 0.25;
  let text = Hft_util.Json.to_string (Hft_obs.Export.metrics_json ()) in
  match Hft_util.Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match Hft_util.Json.member "hft.podem.backtracks" doc with
     | Some m ->
       check "counter value survives" true
         (Hft_util.Json.member "value" m = Some (Hft_util.Json.Int 17))
     | None -> Alcotest.fail "counter missing from export");
    (match Hft_util.Json.member "hft.flow.time" doc with
     | Some m ->
       check "timer sum survives" true
         (Hft_util.Json.member "sum" m = Some (Hft_util.Json.Float 0.25))
     | None -> Alcotest.fail "timer missing from export")

let test_trace_json () =
  with_obs @@ fun () ->
  Hft_obs.Span.with_ "a" ~attrs:[ ("k", "v") ] (fun () ->
      Hft_obs.Span.with_ "b" (fun () -> ()));
  let text = Hft_util.Json.to_string (Hft_obs.Span.trace_to_json ()) in
  match Hft_util.Json.parse text with
  | Ok (Hft_util.Json.List [ root ]) ->
    check "root name" true
      (Hft_util.Json.member "name" root = Some (Hft_util.Json.String "a"));
    (match Hft_util.Json.member "children" root with
     | Some (Hft_util.Json.List [ _ ]) -> ()
     | _ -> Alcotest.fail "child span missing")
  | Ok _ -> Alcotest.fail "expected a one-root trace"
  | Error e -> Alcotest.fail e

let test_table_cells () =
  let open Hft_util.Json in
  check "int cell" true (Hft_obs.Table.cell_to_json "12" = Int 12);
  check "float cell" true (Hft_obs.Table.cell_to_json "1.5" = Float 1.5);
  check "percentage cell" true (Hft_obs.Table.cell_to_json "97.3%" = Float 0.973);
  check "string cell" true (Hft_obs.Table.cell_to_json "ewf" = String "ewf");
  match
    Hft_obs.Table.row_to_json ~title:"t" ~header:[ "bench"; "n" ]
      [ "ewf"; "34" ]
  with
  | Obj kvs ->
    check "title column" true (List.assoc_opt "table" kvs = Some (String "t"));
    check "typed cell" true (List.assoc_opt "n" kvs = Some (Int 34))
  | _ -> Alcotest.fail "row_to_json should build an object"

(* ------------------------------------------------------------------ *)
(* Flight recorder: ledger, Chrome trace                              *)
(* ------------------------------------------------------------------ *)

(* The ledger's views over hand-made rows: the waterfall conserves
   classes and faults, outcomes name every member, and the most
   expensive class ranks by summed cost. *)
let test_ledger_views () =
  let module L = Hft_obs.Ledger in
  let row cls members res ~fsim ~impl ~btk =
    { L.lr_class = cls; lr_rep = List.hd members; lr_members = members;
      lr_resolution = res; lr_fsim_events = fsim; lr_implications = impl;
      lr_backtracks = btk; lr_guided_cuts = 0 }
  in
  let a =
    row 0 [ "f0/SA0" ]
      (L.Podem_detected { test = 0; backtracks = 3; frames = 2 })
      ~fsim:0 ~impl:10 ~btk:3
  and b =
    row 1 [ "f1/SA1"; "f2/SA0" ] (L.Drop_detected { test = 0 }) ~fsim:50
      ~impl:0 ~btk:0
  and c =
    row 2 [ "f3/SA1" ] (L.Proved_untestable { frames = 2 }) ~fsim:0 ~impl:4
      ~btk:1
  in
  let rows = [ a; b; c ] in
  let waterfall = L.waterfall rows in
  check "waterfall classes and faults conserve" true
    (L.totals waterfall = (3, 4));
  check_int "dropped class counts both members" 2
    (match List.assoc_opt "drop_detected" waterfall with
     | Some (_, f) -> f
     | None -> -1);
  check_str "waterfall json"
    "{\"classes\":3,\"faults\":4,\
     \"drop_detected\":{\"classes\":1,\"faults\":2},\
     \"podem_detected\":{\"classes\":1,\"faults\":1},\
     \"salvaged\":{\"classes\":0,\"faults\":0},\
     \"aborted\":{\"classes\":0,\"faults\":0},\
     \"untestable\":{\"classes\":1,\"faults\":1},\
     \"never_targeted\":{\"classes\":0,\"faults\":0}}"
    (Hft_util.Json.to_string (L.waterfall_json waterfall));
  let outcomes = L.outcomes rows in
  check_int "every member has an outcome" 4 (Hashtbl.length outcomes);
  check_str "a member shares its class outcome" "drop_detected"
    (Hashtbl.find outcomes "f2/SA0");
  check "detection against untestable contradicts" true
    (L.contradicts (Hashtbl.find outcomes "f2/SA0")
       (Hashtbl.find outcomes "f3/SA1"));
  check "two detections agree" false
    (L.contradicts "podem_detected" "salvaged");
  match L.top_expensive ~k:2 rows with
  | [ first; second ] ->
    check_int "most expensive is the fsim-heavy class" 1 first.L.lr_class;
    check_int "cost sums the counters" 50 (L.cost first);
    check_int "then the PODEM-heavy one" 0 second.L.lr_class
  | _ -> Alcotest.fail "expected two top rows"

let test_chrome_trace () =
  with_obs @@ fun () ->
  let t = ref 10.0 in
  Hft_obs.Clock.with_source (fun () -> !t) @@ fun () ->
  Hft_obs.Span.with_ "outer" ~attrs:[ ("bench", "tseng") ] (fun () ->
      t := !t +. 0.25;
      Hft_obs.Span.with_ "inner" (fun () -> t := !t +. 0.5);
      t := !t +. 0.25);
  let doc = Hft_obs.Export.chrome_trace () in
  let events =
    match Hft_util.Json.member "traceEvents" doc with
    | Some (Hft_util.Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let field ev k =
    match Hft_util.Json.member k ev with
    | Some v -> v
    | None -> Alcotest.failf "event missing %s" k
  in
  let num ev k =
    match field ev k with
    | Hft_util.Json.Float f -> f
    | Hft_util.Json.Int i -> float_of_int i
    | _ -> Alcotest.failf "%s not numeric" k
  in
  (* One complete event per span. *)
  check_int "one event per span" 2 (List.length events);
  List.iter
    (fun ev ->
      check "complete events" true
        (field ev "ph" = Hft_util.Json.String "X");
      check "shared pid" true (field ev "pid" = Hft_util.Json.Int 1);
      (* Every span is the orchestrator's. *)
      check "orchestrator tid" true (field ev "tid" = Hft_util.Json.Int 0))
    events;
  let by_name n =
    match
      List.find_opt (fun ev -> field ev "name" = Hft_util.Json.String n) events
    with
    | Some ev -> ev
    | None -> Alcotest.failf "span %s missing from trace" n
  in
  let outer = by_name "outer" and inner = by_name "inner" in
  checkf "timestamps relative to earliest root (us)" 0.0 (num outer "ts");
  checkf "outer duration in us" 1e6 (num outer "dur");
  checkf "child offset in us" 0.25e6 (num inner "ts");
  checkf "child duration in us" 0.5e6 (num inner "dur");
  check "child contained in parent" true
    (num inner "ts" >= num outer "ts"
     && num inner "ts" +. num inner "dur"
        <= num outer "ts" +. num outer "dur");
  match Hft_util.Json.member "bench" (field outer "args") with
  | Some (Hft_util.Json.String "tseng") -> ()
  | _ -> Alcotest.fail "span attrs not exported under args"

(* Folded stacks: deterministic flamegraph.pl input — paths are
   ;-joined span names with integer self-time microseconds. *)
let test_folded_stacks () =
  with_obs @@ fun () ->
  let t = ref 0.0 in
  Hft_obs.Clock.with_source (fun () -> !t) @@ fun () ->
  Hft_obs.Span.with_ "outer" (fun () ->
      t := !t +. 0.25;
      Hft_obs.Span.with_ "inner" (fun () -> t := !t +. 0.5);
      t := !t +. 0.25);
  let folded = Hft_obs.Export.folded_stacks () in
  check_str "folded stacks are exact and sorted"
    "outer 500000\nouter;inner 500000\n" folded;
  (* Self-time attribution agrees: outer's self time excludes inner. *)
  match Hft_obs.Export.self_times () with
  | [ (n1, t1); (n2, t2) ] ->
    check "two named spans" true
      (List.sort compare [ n1; n2 ] = [ "inner"; "outer" ]);
    checkf "self times halve the second" 0.5 t1;
    checkf "and the other half" 0.5 t2
  | l -> Alcotest.failf "expected 2 self-time rows, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Flow instrumentation contract                                      *)
(* ------------------------------------------------------------------ *)

let test_flow_spans () =
  let g = Hft_cdfg.Paper_fig1.graph () in
  List.iter
    (fun (name, kind) ->
      with_obs @@ fun () ->
      ignore (Hft_core.Flow.synthesize ~width:4 kind g);
      match Hft_obs.Span.roots () with
      | [ root ] ->
        check_str
          (Printf.sprintf "%s root span" name)
          ("flow:" ^ name) (Hft_obs.Span.name root);
        check
          (Printf.sprintf "%s has >= 3 phase children" name)
          true
          (List.length (Hft_obs.Span.children root) >= 3);
        (* Partial-scan and BIST run a conventional baseline internally,
           so runs >= 1 but the root span is still the outer flow. *)
        check
          (Printf.sprintf "%s counted its run" name)
          true
          (Hft_obs.Registry.count "hft.flow.runs" >= 1);
        check
          (Printf.sprintf "%s timed its run" name)
          true
          (Hft_obs.Registry.value "hft.flow.time" >= 0.0
           && Hft_obs.Registry.count "hft.flow.time" >= 1)
      | roots ->
        Alcotest.failf "%s: expected one root span, got %d" name
          (List.length roots))
    Hft_core.Flow.flow_kinds

(* ------------------------------------------------------------------ *)
(* Campaign tapes: offline rebuild and the watch fold                 *)
(* ------------------------------------------------------------------ *)

(* One small real campaign taped to a file; returns the tape's text and
   the campaign. *)
let run_taped_campaign ?jobs () =
  let g = Hft_cdfg.Paper_fig1.graph () in
  let tape = Filename.temp_file "hft_tape" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tape)
    (fun () ->
      let r = Hft_core.Flow.synthesize_for_partial_scan ~width:4 g in
      let c =
        Hft_core.Flow.test_campaign ~backtrack_limit:20 ~max_frames:2
          ~sample:4 ~seed:7 ~n_patterns:16 ?jobs ~tape r
      in
      (In_channel.with_open_bin tape In_channel.input_all, c))

(* A tape the loader refuses, naming the first bad line. *)
let rejects what text line =
  match Hft_obs.Ledger.of_jsonl text with
  | Ok _ -> Alcotest.failf "%s should not load" what
  | Error e ->
    let prefix = Printf.sprintf "line %d:" line in
    if not (String.starts_with ~prefix e) then
      Alcotest.failf "%s: expected %S, got %S" what prefix e

let test_offline_rebuild () =
  with_obs @@ fun () ->
  let ledger, c = run_taped_campaign () in
  let rows = c.Hft_core.Flow.c_atpg.Hft_gate.Seq_atpg.rows in
  let live_wf =
    Hft_util.Json.to_string
      (Hft_obs.Ledger.waterfall_json (Hft_obs.Ledger.waterfall rows))
  in
  let load what text =
    match Hft_obs.Ledger.of_jsonl text with
    | Ok tape -> tape
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let wf_json (tape : Hft_obs.Ledger.tape) =
    Hft_util.Json.to_string
      (Hft_obs.Ledger.waterfall_json tape.Hft_obs.Ledger.tp_waterfall)
  in
  (* Campaign tape: what the run committed, row for row. *)
  let tape = load "ledger tape" ledger in
  check "tape rows = live rows" true (tape.Hft_obs.Ledger.tp_rows = rows);
  check "tape tests = live tests" true
    (tape.Hft_obs.Ledger.tp_tests = c.Hft_core.Flow.c_tests);
  check "tests carry their vectors" true
    (List.for_all
       (fun (t : Hft_obs.Ledger.test) ->
         Array.length t.lt_vectors = t.lt_frames)
       tape.Hft_obs.Ledger.tp_tests);
  check_int "tape test count" (List.length c.Hft_core.Flow.c_tests)
    (List.length tape.Hft_obs.Ledger.tp_tests);
  check_str "ledger tape = live waterfall" live_wf (wf_json tape);
  (* The expensive-class views render the tape exactly as the live
     ledger. *)
  let live_top = Hft_obs.Ledger.top_expensive ~k:10 rows in
  let tape_top =
    Hft_obs.Ledger.top_expensive ~k:10 tape.Hft_obs.Ledger.tp_rows
  in
  check "expensive table present" true (live_top <> []);
  check_str "expensive table text = live"
    (Hft_obs.Ledger.expensive_table live_top)
    (Hft_obs.Ledger.expensive_table tape_top);
  check_str "expensive json = live"
    (Hft_util.Json.to_string (Hft_obs.Ledger.expensive_json live_top))
    (Hft_util.Json.to_string (Hft_obs.Ledger.expensive_json tape_top));
  (* Unparseable or malformed lines are rejected, naming the line. *)
  rejects "garbage tape" "not json\n{}" 1;
  let lines = String.split_on_char '\n' ledger in
  check "ledger tape has a middle row" true (List.length lines > 4);
  let line_of key =
    let rec go i = function
      | l :: rest ->
        (match Hft_util.Json.parse l with
         | Ok j when Hft_util.Json.member key j <> None -> i
         | _ -> go (i + 1) rest)
      | [] -> Alcotest.failf "tape has no %s line" key
    in
    go 1 lines
  in
  let first_row = line_of "class" and end_marker = line_of "end" in
  let edit n f =
    String.concat "\n"
      (List.concat
         (List.mapi (fun i l -> if i = n - 1 then f l else [ l ]) lines))
  in
  rejects "torn middle line"
    (edit 3 (fun l -> [ String.sub l 0 (String.length l / 2) ]))
    3;
  rejects "malformed row"
    (edit first_row (fun l ->
         match Hft_util.Json.parse l with
         | Ok (Hft_util.Json.Obj fields) ->
           [ Hft_util.Json.to_string
               (Hft_util.Json.Obj (List.remove_assoc "resolution" fields)) ]
         | _ -> Alcotest.fail "ledger row does not parse"))
    first_row;
  (* A finished tape counts its lines: a lost row is caught at the end
     marker, one line up once the row is gone. *)
  rejects "lost row" (edit first_row (fun _ -> [])) (end_marker - 1);
  (match Hft_obs.Ledger.of_jsonl "\n\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty tape should not load");
  (* The tape is the commit order's record, so a -j4 campaign tapes the
     same rows, charges included, as it holds live. *)
  let ledger4, c4 = run_taped_campaign ~jobs:4 () in
  let tape4 = load "-j4 ledger tape" ledger4 in
  check "-j4 tape rows = live rows" true
    (tape4.Hft_obs.Ledger.tp_rows
     = c4.Hft_core.Flow.c_atpg.Hft_gate.Seq_atpg.rows);
  check "-j4 tape tests = live tests" true
    (tape4.Hft_obs.Ledger.tp_tests = c4.Hft_core.Flow.c_tests)

(* [hft watch] folds the tape: every line prefix of a finished tape, and
   that prefix with a torn line after it, renders as one status line
   over the offline report of what the prefix committed, and reads as
   finished only once the end marker is in.  A file that does not open
   with the tape header is no tape to watch. *)
let test_watch_folds_tape () =
  with_obs @@ fun () ->
  let ledger, _ = run_taped_campaign () in
  let load text =
    match Hft_obs.Ledger.of_jsonl text with
    | Ok tape -> tape
    | Error e -> Alcotest.failf "tape prefix does not load: %s" e
  in
  let file = "fig1.jsonl" in
  let watch ?w ~now text = Hft_core.Forensics.watch w ~now file (load text) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go k =
      k + nn <= nh && (String.sub hay k nn = needle || go (k + 1))
    in
    go 0
  in
  let lines =
    List.filter_map
      (fun l -> if l = "" then None else Some (l ^ "\n"))
      (String.split_on_char '\n' ledger)
  in
  let n = List.length lines in
  check "tape has rows" true (n > 3);
  let check_view what ~finished text =
    let _, view = watch ~now:0.0 text in
    match String.index_opt view '\n' with
    | None -> Alcotest.failf "%s: no status line" what
    | Some k ->
      check_str (what ^ ": report under the status line")
        (Hft_core.Forensics.report ~json:false ~top:5
           (Hft_core.Forensics.Tape (file, load text)))
        (String.sub view (k + 1) (String.length view - k - 1));
      check_str (what ^ ": running until the end marker")
        (if finished then "finished" else "running")
        (List.hd (String.split_on_char ':' view))
  in
  let first, _ = watch ~now:0.0 (List.hd lines) in
  List.iteri
    (fun i _ ->
      let prefix = String.concat "" (List.filteri (fun j _ -> j <= i) lines) in
      let finished = i = n - 1 in
      check_view (Printf.sprintf "prefix %d" (i + 1)) ~finished prefix;
      Option.iter
        (fun next ->
          check_view
            (Printf.sprintf "prefix %d + torn line" (i + 1))
            ~finished
            (prefix ^ String.sub next 0 (String.length next / 2)))
        (List.nth_opt lines (i + 1));
      (* The watcher's clock: a rate once faults resolved since its first
         look, and an ETA while the campaign runs. *)
      let _, later = watch ~w:first ~now:2.0 prefix in
      let resolved = (load prefix).Hft_obs.Ledger.tp_rows <> [] in
      check "rate once faults resolved" resolved (contains later " faults/s");
      check "eta only while running" (resolved && not finished)
        (contains later ", eta "))
    lines;
  rejects "event line" "{\"type\":\"collapse\"}\n" 1

let () =
  Alcotest.run "hft_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter last is cumulative" `Quick
            test_counter_last_cumulative;
          Alcotest.test_case "gauge and timer" `Quick test_gauge_and_timer;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "time uses clock" `Quick test_time_uses_clock;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
        ] );
      ( "spans",
        [
          Alcotest.test_case "tree" `Quick test_span_tree;
          Alcotest.test_case "duplicate attrs" `Quick test_span_dup_attrs;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "render" `Quick test_span_render;
          Alcotest.test_case "gc attrs" `Quick test_span_gc_attrs;
        ] );
      ("disabled", [ Alcotest.test_case "no-op" `Quick test_disabled_noop ]);
      ( "export",
        [
          Alcotest.test_case "metrics json" `Quick test_metrics_json_roundtrip;
          Alcotest.test_case "trace json" `Quick test_trace_json;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
          Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
          Alcotest.test_case "table cells" `Quick test_table_cells;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ledger views" `Quick test_ledger_views;
        ] );
      ("flow", [ Alcotest.test_case "phase spans" `Quick test_flow_spans ]);
      ( "tapes",
        [
          Alcotest.test_case "offline rebuild" `Quick test_offline_rebuild;
          Alcotest.test_case "watch folds the tape" `Quick
            test_watch_folds_tape;
        ] );
    ]
