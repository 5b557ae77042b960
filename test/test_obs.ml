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
(* Flight recorder: journal, ledger, Chrome trace                     *)
(* ------------------------------------------------------------------ *)

let test_journal_ring () =
  with_obs @@ fun () ->
  Hft_obs.Journal.set_capacity 8;
  Fun.protect ~finally:(fun () -> Hft_obs.Journal.set_capacity 4096)
  @@ fun () ->
  for i = 0 to 19 do
    Hft_obs.Journal.record
      (Hft_obs.Journal.Note { key = "i"; value = string_of_int i })
  done;
  let entries = Hft_obs.Journal.entries () in
  check_int "ring keeps the newest capacity entries" 8 (List.length entries);
  check_int "recorded counts everything" 20 (Hft_obs.Journal.recorded ());
  check_int "dropped = recorded - kept" 12 (Hft_obs.Journal.dropped ());
  (match entries with
   | first :: _ ->
     check_int "oldest surviving seq" 12 first.Hft_obs.Journal.e_seq
   | [] -> Alcotest.fail "empty ring");
  check "entries are seq-ordered" true
    (List.for_all2
       (fun e i -> e.Hft_obs.Journal.e_seq = 12 + i)
       entries
       (List.init 8 Fun.id))

let test_journal_jsonl () =
  with_obs @@ fun () ->
  Hft_obs.Journal.record (Hft_obs.Journal.Collapse { faults = 9; classes = 4 });
  Hft_obs.Journal.record
    (Hft_obs.Journal.Fault_dropped { cls = 3; test = 1 });
  let lines =
    String.split_on_char '\n' (Hft_obs.Journal.to_jsonl ())
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per entry" 2 (List.length lines);
  let types =
    List.map
      (fun line ->
        match Hft_util.Json.parse line with
        | Error e -> Alcotest.failf "line does not parse: %s" e
        | Ok doc ->
          (match Hft_util.Json.member "type" doc with
           | Some (Hft_util.Json.String t) -> t
           | _ -> Alcotest.fail "line has no type field"))
      lines
  in
  check "snake_case event tags" true (types = [ "collapse"; "fault_dropped" ])

let test_ledger_lifecycle () =
  with_obs @@ fun () ->
  let a = Hft_obs.Ledger.register_class ~rep:"f0/SA0" ~members:[ "f0/SA0" ] in
  let b =
    Hft_obs.Ledger.register_class ~rep:"f1/SA1"
      ~members:[ "f1/SA1"; "f2/SA0" ]
  in
  check_int "dense handles" 0 a;
  check_int "dense handles (2)" 1 b;
  let t = Hft_obs.Ledger.register_test ~frames:2 in
  Hft_obs.Ledger.annotate_last_test ~first_row:5
    ~vectors:[| [| true; false |]; [| false; true |] |] ~scan:[| true |];
  Hft_obs.Ledger.resolve a
    (Hft_obs.Ledger.Podem_detected { test = t; backtracks = 3; frames = 2 });
  Hft_obs.Ledger.resolve b (Hft_obs.Ledger.Drop_detected { test = t });
  Hft_obs.Ledger.charge a ~implications:10 ~backtracks:3;
  Hft_obs.Ledger.charge_fsim_events [| b |] [| 50 |];
  let waterfall = Hft_obs.Ledger.waterfall () in
  check_int "waterfall classes conserve" (Hft_obs.Ledger.n_classes ())
    (List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 waterfall);
  check_int "waterfall faults conserve" 3
    (List.fold_left (fun acc (_, (_, f)) -> acc + f) 0 waterfall);
  check_int "dropped class counts both members" 2
    (match List.assoc_opt "drop_detected" waterfall with
     | Some (_, f) -> f
     | None -> -1);
  (match Hft_obs.Ledger.tests () with
   | [ test ] ->
     check_int "test id" t test.Hft_obs.Ledger.lt_id;
     check "pattern rows attached" true
       (test.Hft_obs.Ledger.lt_rows = Some (5, 2));
     check "stimulus attached" true
       (test.Hft_obs.Ledger.lt_vectors.(1) = [| false; true |]
        && test.Hft_obs.Ledger.lt_scan = [| true |])
   | _ -> Alcotest.fail "expected one registered test");
  match Hft_obs.Ledger.top_expensive ~k:1 () with
  | [ row ] ->
    check_int "most expensive is the fsim-heavy class" b
      row.Hft_obs.Ledger.lr_class;
    check_int "cost sums the counters" 50 (Hft_obs.Ledger.cost row)
  | _ -> Alcotest.fail "expected one top row"

let test_flight_recorder_disabled () =
  with_obs ~on:false @@ fun () ->
  Hft_obs.Journal.record (Hft_obs.Journal.Note { key = "k"; value = "v" });
  let h = Hft_obs.Ledger.register_class ~rep:"f/SA0" ~members:[ "f/SA0" ] in
  check_int "register_class returns -1 when disabled" (-1) h;
  Hft_obs.Ledger.resolve h (Hft_obs.Ledger.Drop_detected { test = 0 });
  Hft_obs.Ledger.charge_fsim_events [| h |] [| 5 |];
  check_int "no test ids when disabled" (-1)
    (Hft_obs.Ledger.register_test ~frames:1);
  Hft_obs.Ledger.annotate_last_test ~first_row:0 ~vectors:[| [||] |]
    ~scan:[||];
  check "journal stays empty" true (Hft_obs.Journal.entries () = []);
  check_int "journal recorded nothing" 0 (Hft_obs.Journal.recorded ());
  check_int "ledger has no rows" 0 (Hft_obs.Ledger.n_classes ());
  check "ledger rows empty" true (Hft_obs.Ledger.rows () = [])

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
  (* One thread_name metadata record for the orchestrator track, then
     one complete event per span. *)
  let metas, events =
    List.partition (fun ev -> field ev "ph" = Hft_util.Json.String "M") events
  in
  check_int "one thread_name record" 1 (List.length metas);
  check_int "one event per span" 2 (List.length events);
  List.iter
    (fun ev ->
      check "complete events" true
        (field ev "ph" = Hft_util.Json.String "X");
      check "shared pid" true (field ev "pid" = Hft_util.Json.Int 1);
      (* Everything here ran on the orchestrator: domain id 0, named. *)
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

(* Multi-track traces: worker slices land on their own tid, tracks are
   labelled, and speculation→commit flow arrows pair up (an "s" with no
   terminating "f" would dangle in the viewer, so it is suppressed). *)
let test_trace_tracks () =
  with_obs @@ fun () ->
  let t = ref 10.0 in
  Hft_obs.Clock.with_source (fun () -> !t) @@ fun () ->
  Hft_obs.Span.with_ "campaign" (fun () -> t := !t +. 1.0);
  (* Two worker evals; one is consumed by the commit window (flow 7),
     one's speculation never commits (flow 8 — must stay arrowless). *)
  Hft_obs.Span.add_track ~flow_out:7 ~domain:1 ~name:"eval" ~start:10.1
    ~dur:0.2 ();
  Hft_obs.Span.add_track ~flow_out:8 ~domain:2 ~name:"eval" ~start:10.2
    ~dur:0.3 ();
  Hft_obs.Span.add_track ~flow_in:[ 7 ] ~domain:0 ~name:"commit-window"
    ~start:10.6 ~dur:0.1 ();
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
  let ph p ev = field ev "ph" = Hft_util.Json.String p in
  let tid ev =
    match field ev "tid" with
    | Hft_util.Json.Int i -> i
    | _ -> Alcotest.fail "tid not an int"
  in
  let tids =
    List.sort_uniq compare (List.map tid events)
  in
  check "one timeline per domain" true (tids = [ 0; 1; 2 ]);
  let metas = List.filter (ph "M") events in
  check_int "one thread_name per track" 3 (List.length metas);
  let meta_names =
    List.filter_map
      (fun ev ->
        match Hft_util.Json.member "name" (field ev "args") with
        | Some (Hft_util.Json.String s) -> Some s
        | _ -> None)
      metas
  in
  check "tracks are labelled" true
    (List.sort compare meta_names
     = [ "orchestrator"; "worker-1"; "worker-2" ]);
  let flow_id ev =
    match field ev "id" with
    | Hft_util.Json.Int i -> i
    | _ -> Alcotest.fail "flow id not an int"
  in
  let starts = List.filter (ph "s") events in
  let finishes = List.filter (ph "f") events in
  check_int "one flow start (uncommitted one suppressed)" 1
    (List.length starts);
  check_int "one flow finish" 1 (List.length finishes);
  check_int "flow start is the committed speculation" 7
    (flow_id (List.hd starts));
  check_int "flow finish matches" 7 (flow_id (List.hd finishes));
  check "flow starts on the worker track" true (tid (List.hd starts) = 1);
  check "flow finishes on the orchestrator track" true
    (tid (List.hd finishes) = 0);
  (* Track slices are ordinary complete events on their worker's tid. *)
  let evals =
    List.filter
      (fun ev -> ph "X" ev && field ev "name" = Hft_util.Json.String "eval")
      events
  in
  check_int "worker slices exported" 2 (List.length evals)

(* Folded stacks: deterministic flamegraph.pl input — paths are
   ;-joined span names with integer self-time microseconds, worker
   slices fold under a worker-<d> root, and domain-0 track slices are
   excluded (their time is already inside the span tree). *)
let test_folded_stacks () =
  with_obs @@ fun () ->
  let t = ref 0.0 in
  Hft_obs.Clock.with_source (fun () -> !t) @@ fun () ->
  Hft_obs.Span.with_ "outer" (fun () ->
      t := !t +. 0.25;
      Hft_obs.Span.with_ "inner" (fun () -> t := !t +. 0.5);
      t := !t +. 0.25);
  Hft_obs.Span.add_track ~domain:1 ~name:"eval" ~start:0.1 ~dur:0.125 ();
  Hft_obs.Span.add_track ~domain:0 ~name:"commit-window" ~start:0.8 ~dur:0.1
    ();
  let folded = Hft_obs.Export.folded_stacks () in
  check_str "folded stacks are exact and sorted"
    "outer 500000\nouter;inner 500000\nworker-1;eval 125000\n" folded;
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
(* Progress: the hft-progress/1 stream, watch views, offline rebuild  *)
(* ------------------------------------------------------------------ *)

let jsonl_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let parse_line l =
  match Hft_util.Json.parse l with
  | Ok d -> d
  | Error e -> Alcotest.failf "unparseable stream line %S: %s" l e

let jint k d =
  match Hft_util.Json.member k d with
  | Some (Hft_util.Json.Int i) -> i
  | _ -> Alcotest.failf "missing int field %s" k

let jstr k d =
  match Hft_util.Json.member k d with
  | Some (Hft_util.Json.String s) -> s
  | _ -> Alcotest.failf "missing string field %s" k

(* One small real campaign streamed into a buffer and taped to a file;
   returns (stream lines, journal tape, campaign tape, live waterfall
   JSON, campaign result). *)
let run_streamed_campaign ?(every = 2) ?jobs () =
  let g = Hft_cdfg.Paper_fig1.graph () in
  let b = Buffer.create 4096 in
  Hft_obs.Progress.start
    ~config:
      { Hft_obs.Progress.default_config with
        Hft_obs.Progress.every_classes = every }
    (Hft_obs.Progress.sink_of_buffer b);
  let tape = Filename.temp_file "hft_tape" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.Progress.stop ();
      Sys.remove tape)
    (fun () ->
      let r = Hft_core.Flow.synthesize_for_partial_scan ~width:4 g in
      let c =
        Hft_core.Flow.test_campaign ~backtrack_limit:20 ~max_frames:2
          ~sample:4 ~seed:7 ~n_patterns:16 ?jobs ~tape ~campaign:"fig1/test" r
      in
      let journal = Hft_obs.Journal.to_jsonl () in
      let ledger = In_channel.with_open_bin tape In_channel.input_all in
      let live_wf = Hft_util.Json.to_string (Hft_obs.Ledger.waterfall_json ()) in
      Hft_obs.Progress.stop ();
      (jsonl_lines (Buffer.contents b), journal, ledger, live_wf, c))

let test_progress_stream () =
  with_obs @@ fun () ->
  let lines, _, _, live_wf, _ = run_streamed_campaign () in
  let docs = List.map parse_line lines in
  check "stream non-trivial" true (List.length docs > 10);
  (* Every event: schema + strictly monotone seq. *)
  let _ =
    List.fold_left
      (fun prev d ->
        check_str "schema" "hft-progress/1" (jstr "schema" d);
        let seq = jint "seq" d in
        check ("seq strictly monotone at " ^ string_of_int seq) true
          (seq > prev);
        seq)
      (-1) docs
  in
  let snapshots =
    List.filter (fun d -> jstr "type" d = "snapshot") docs
  in
  let finals, intermediates =
    List.partition
      (fun d ->
        Hft_util.Json.member "final" d = Some (Hft_util.Json.Bool true))
      snapshots
  in
  check "at least 2 intermediate snapshots" true
    (List.length intermediates >= 2);
  check_int "exactly one final snapshot" 1 (List.length finals);
  (* Conservation at every emission: per-outcome classes/faults sum to
     the waterfall totals, and resolved matches the outcome tallies. *)
  List.iter
    (fun d ->
      let wf =
        match Hft_util.Json.member "waterfall" d with
        | Some w -> w
        | None -> Alcotest.fail "snapshot without waterfall"
      in
      let cell k =
        match Hft_util.Json.member k wf with
        | Some c -> (jint "classes" c, jint "faults" c)
        | None -> Alcotest.failf "waterfall missing %s" k
      in
      let sum_c, sum_f =
        List.fold_left
          (fun (ac, af) k ->
            let c, f = cell k in
            (ac + c, af + f))
          (0, 0) Hft_obs.Ledger.outcome_keys
      in
      check_int "classes conserved" (jint "classes" wf) sum_c;
      check_int "faults conserved" (jint "faults" wf) sum_f;
      let nt_c, _ = cell "never_targeted" in
      check_int "resolved = classes - never_targeted" (jint "resolved" d)
        (jint "classes" wf - nt_c))
    snapshots;
  (* The final snapshot's waterfall is the live ledger waterfall, bit
     for bit. *)
  (match finals with
   | [ f ] ->
     (match Hft_util.Json.member "waterfall" f with
      | Some wf ->
        check_str "final snapshot = live waterfall" live_wf
          (Hft_util.Json.to_string wf)
      | None -> Alcotest.fail "final snapshot without waterfall")
   | _ -> ());
  (* The stream is terminated explicitly. *)
  match List.rev docs with
  | last :: _ -> check_str "terminator" "stream_end" (jstr "type" last)
  | [] -> ()

(* Progress only reads engine state: a campaign with the streamer on
   must leave the engines' effort bit-identical to one with
   observability entirely off. *)
let test_progress_disabled_differential () =
  let g = Hft_cdfg.Paper_fig1.graph () in
  let campaign () =
    let r = Hft_core.Flow.synthesize_for_partial_scan ~width:4 g in
    Hft_core.Flow.test_campaign ~backtrack_limit:20 ~max_frames:2 ~sample:4
      ~seed:7 ~n_patterns:16 r
  in
  let c_off =
    Hft_obs.reset ();
    Hft_obs.with_enabled false campaign
  in
  let c_on =
    with_obs @@ fun () ->
    let b = Buffer.create 1024 in
    Hft_obs.Progress.start (Hft_obs.Progress.sink_of_buffer b);
    Fun.protect ~finally:Hft_obs.Progress.stop campaign
  in
  check "atpg stats bit-identical" true
    (c_off.Hft_core.Flow.c_atpg = c_on.Hft_core.Flow.c_atpg);
  check "fsim coverage identical" true
    (Hft_gate.Fsim.coverage c_off.Hft_core.Flow.c_fsim
     = Hft_gate.Fsim.coverage c_on.Hft_core.Flow.c_fsim);
  check "patterns stored identical" true
    (c_off.Hft_core.Flow.c_patterns_stored
     = c_on.Hft_core.Flow.c_patterns_stored)

let test_openmetrics_grammar () =
  with_obs @@ fun () ->
  Hft_obs.Registry.incr "hft.test.counter" ~by:3;
  Hft_obs.Registry.set "hft.test.gauge" 1.5;
  Hft_obs.Registry.observe "hft.test.hist" 0.5;
  Hft_obs.Registry.observe "hft.test.hist" 2.0;
  Hft_obs.Registry.observe "hft.test.hist" 2.0;
  let text = Hft_obs.Export.openmetrics () in
  let lines = String.split_on_char '\n' text in
  check "ends with EOF terminator" true
    (match List.rev (List.filter (fun l -> l <> "") lines) with
     | "# EOF" :: _ -> true
     | _ -> false);
  (* Every exposition line is a comment or `name{labels} value` with a
     mangled (metric-charset) name. *)
  let name_ok n =
    n <> ""
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = ':')
         n
  in
  List.iter
    (fun l ->
      if l <> "" && not (String.length l >= 1 && l.[0] = '#') then begin
        match String.index_opt l ' ' with
        | None -> Alcotest.failf "sample line without value: %S" l
        | Some i ->
          let name = String.sub l 0 i in
          let name =
            match String.index_opt name '{' with
            | Some j -> String.sub name 0 j
            | None -> name
          in
          check ("metric name charset: " ^ name) true (name_ok name)
      end)
    lines;
  let has s =
    List.exists (fun l -> l = s) lines
  in
  check "counter typed" true (has "# TYPE hft_test_counter counter");
  check "counter total sample" true (has "hft_test_counter_total 3");
  check "gauge typed" true (has "# TYPE hft_test_gauge gauge");
  check "gauge sample" true (has "hft_test_gauge 1.5");
  check "histogram typed" true (has "# TYPE hft_test_hist histogram");
  check "histogram count" true (has "hft_test_hist_count 3");
  check "histogram sum" true (has "hft_test_hist_sum 4.5");
  (* Buckets: cumulative, non-decreasing, increasing le, +Inf = count. *)
  let buckets =
    List.filter_map
      (fun l ->
        let p = "hft_test_hist_bucket{le=\"" in
        let pl = String.length p in
        if String.length l > pl && String.sub l 0 pl = p then begin
          match String.index_opt l '}' with
          | Some j ->
            let le = String.sub l pl (j - 1 - pl) in
            let v =
              int_of_string (String.sub l (j + 2) (String.length l - j - 2))
            in
            Some (le, v)
          | None -> None
        end
        else None)
      lines
  in
  check "has buckets" true (List.length buckets >= 2);
  let rec monotone = function
    | (le1, v1) :: ((le2, v2) :: _ as rest) ->
      let f s = if s = "+Inf" then infinity else float_of_string s in
      check "le increasing" true (f le1 < f le2);
      check "cumulative non-decreasing" true (v1 <= v2);
      monotone rest
    | _ -> ()
  in
  monotone buckets;
  (match List.rev buckets with
   | ("+Inf", v) :: _ -> check_int "+Inf bucket = count" 3 v
   | _ -> Alcotest.fail "no +Inf bucket")

let test_watch_view () =
  with_obs @@ fun () ->
  let lines, _, _, _, _ = run_streamed_campaign () in
  (* Completed stream: finished, seq-clean, campaign label visible. *)
  let v = Hft_obs.Progress.view_of_lines lines in
  check "completed stream finished" true v.Hft_obs.Progress.v_finished;
  check "seq ok" true v.Hft_obs.Progress.v_seq_ok;
  check_int "no bad lines" 0 v.Hft_obs.Progress.v_bad;
  check_int "one campaign finished" 1 v.Hft_obs.Progress.v_campaigns_done;
  check "campaign label" true
    (v.Hft_obs.Progress.v_campaign = Some "fig1/test");
  let dash = Hft_obs.Progress.render_view v in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "dashboard mentions campaign" true (contains dash "fig1/test");
  (* Truncated live tail: still renders, not finished. *)
  let half = List.filteri (fun i _ -> i < List.length lines / 2) lines in
  let vh = Hft_obs.Progress.view_of_lines half in
  check "truncated stream not finished" false vh.Hft_obs.Progress.v_finished;
  check "truncated stream renders" true
    (String.length (Hft_obs.Progress.render_view vh) > 0);
  (* A replayed (non-monotone) line trips the gap detector; a torn tail
     (unparseable) is counted, not fatal. *)
  let vg =
    Hft_obs.Progress.view_of_lines (lines @ [ List.hd lines; "{torn" ])
  in
  check "seq gap detected" false vg.Hft_obs.Progress.v_seq_ok;
  check_int "torn line counted" 1 vg.Hft_obs.Progress.v_bad

(* Forward compatibility: a stream written by a newer hft (extra event
   kinds, extra snapshot fields) must fold and render — skipped data is
   counted and surfaced as a warning, never a crash. *)
let test_watch_forward_compat () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let lines =
    [ {|{"schema":"hft-progress/1","seq":0,"time":1.0,"type":"campaign_started","campaign":"c","faults":10}|};
      (* An event kind this watch predates. *)
      {|{"schema":"hft-progress/1","seq":1,"time":1.1,"type":"quantum_snapshot","qubits":3}|};
      (* A snapshot carrying one unknown field plus a parallel object. *)
      {|{"schema":"hft-progress/1","seq":2,"time":1.2,"type":"snapshot","final":true,"campaign":"c","phase":null,"elapsed_s":0.2,"classes":4,"resolved":4,"tests":2,"rate_cps":20.0,"eta_s":null,"waterfall":{"faults":10},"gc":{"compactions":0},"top":[],"parallel":{"jobs":2,"tasks":8,"steals":1,"spec_hits":7,"spec_misses":1,"utilization":0.8,"workers":[{"domain":0,"classes":3,"steals":0,"utilization":0.9},{"domain":1,"classes":1,"steals":1,"utilization":0.7}]},"novel_field":{"x":1}}|}
    ]
  in
  let v = Hft_obs.Progress.view_of_lines lines in
  check_int "unknown event counted" 1 v.Hft_obs.Progress.v_unknown_events;
  check_int "unknown snapshot field counted" 1
    v.Hft_obs.Progress.v_unknown_fields;
  check_int "unknown lines still parse as events" 3
    v.Hft_obs.Progress.v_events;
  check "stream still finishes" true v.Hft_obs.Progress.v_finished;
  let dash = Hft_obs.Progress.render_view v in
  check "dashboard warns about skipped data" true
    (contains dash "skipped 1 unknown event(s), 1 unknown snapshot field(s)");
  (* The parallel object renders: pool summary plus per-worker bars. *)
  check "pool summary rendered" true (contains dash "jobs 2");
  check "worker bar rendered" true (contains dash "w1");
  check "worker utilization rendered" true (contains dash "70%");
  (* A snapshot without the parallel object renders bar-free. *)
  let v0 =
    Hft_obs.Progress.view_of_lines
      [ {|{"schema":"hft-progress/1","seq":0,"time":1.0,"type":"snapshot","final":false,"classes":1,"resolved":0,"tests":0,"waterfall":{"faults":1},"top":[]}|} ]
  in
  check "no spurious warning" true
    (not (contains (Hft_obs.Progress.render_view v0) "skipped"))

let test_offline_rebuild () =
  with_obs @@ fun () ->
  let _, journal, ledger, live_wf, _ = run_streamed_campaign () in
  let load what text =
    match Hft_obs.Ledger.of_jsonl text with
    | Ok tape -> tape
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let wf_json (tape : Hft_obs.Ledger.tape) =
    Hft_util.Json.to_string
      (Hft_obs.Ledger.waterfall_json ~waterfall:tape.Hft_obs.Ledger.tp_waterfall
         ())
  in
  (* Campaign tape: what the run committed, row for row. *)
  let tape = load "ledger tape" ledger in
  check_str "source" "ledger" tape.Hft_obs.Ledger.tp_source;
  check "tape rows = live rows" true
    (tape.Hft_obs.Ledger.tp_rows = Hft_obs.Ledger.rows ());
  check "tape tests = live tests" true
    (tape.Hft_obs.Ledger.tp_tests = Hft_obs.Ledger.tests ());
  check "tests carry their vectors" true
    (List.for_all
       (fun (t : Hft_obs.Ledger.test) ->
         Array.length t.lt_vectors = t.lt_frames)
       tape.Hft_obs.Ledger.tp_tests);
  check_int "tape test count" (Hft_obs.Ledger.n_tests ())
    (List.length tape.Hft_obs.Ledger.tp_tests);
  check_str "ledger tape = live waterfall" live_wf (wf_json tape);
  (* The expensive-class views render the tape exactly as the live
     ledger. *)
  let live_top = Hft_obs.Ledger.top_expensive ~k:10 () in
  let tape_top =
    Hft_obs.Ledger.top_expensive ~rows:tape.Hft_obs.Ledger.tp_rows ~k:10 ()
  in
  check "expensive table present" true (live_top <> []);
  check_str "expensive table text = live"
    (Hft_obs.Ledger.expensive_table live_top)
    (Hft_obs.Ledger.expensive_table tape_top);
  check_str "expensive json = live"
    (Hft_util.Json.to_string (Hft_obs.Ledger.expensive_json live_top))
    (Hft_util.Json.to_string (Hft_obs.Ledger.expensive_json tape_top));
  (* Journal tape: the campaign fits the ring, so it is exact too. *)
  check_int "ring did not drop" 0 (Hft_obs.Journal.dropped ());
  let jtape = load "journal tape" journal in
  check_str "source" "journal" jtape.Hft_obs.Ledger.tp_source;
  check "journal tape carries no rows" true
    (jtape.Hft_obs.Ledger.tp_rows = []);
  check_str "journal tape = live waterfall" live_wf (wf_json jtape);
  check_int "journal test count" (Hft_obs.Ledger.n_tests ())
    (List.length jtape.Hft_obs.Ledger.tp_tests);
  (* Unparseable or malformed lines are rejected, naming the line. *)
  let rejects what text line =
    match Hft_obs.Ledger.of_jsonl text with
    | Ok _ -> Alcotest.failf "%s should not load" what
    | Error e ->
      let prefix = Printf.sprintf "line %d:" line in
      if not (String.starts_with ~prefix e) then
        Alcotest.failf "%s: expected %S, got %S" what prefix e
  in
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
  Hft_obs.reset ();
  let _, _, ledger4, _, _ = run_streamed_campaign ~jobs:4 () in
  let tape4 = load "-j4 ledger tape" ledger4 in
  check "-j4 tape rows = live rows" true
    (tape4.Hft_obs.Ledger.tp_rows = Hft_obs.Ledger.rows ());
  check "-j4 tape tests = live tests" true
    (tape4.Hft_obs.Ledger.tp_tests = Hft_obs.Ledger.tests ())

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
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no-op" `Quick test_disabled_noop;
          Alcotest.test_case "flight recorder no-op" `Quick
            test_flight_recorder_disabled;
        ] );
      ( "export",
        [
          Alcotest.test_case "metrics json" `Quick test_metrics_json_roundtrip;
          Alcotest.test_case "trace json" `Quick test_trace_json;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
          Alcotest.test_case "trace tracks" `Quick test_trace_tracks;
          Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
          Alcotest.test_case "table cells" `Quick test_table_cells;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "journal ring" `Quick test_journal_ring;
          Alcotest.test_case "journal jsonl" `Quick test_journal_jsonl;
          Alcotest.test_case "ledger lifecycle" `Quick test_ledger_lifecycle;
        ] );
      ("flow", [ Alcotest.test_case "phase spans" `Quick test_flow_spans ]);
      ( "progress",
        [
          Alcotest.test_case "stream contract" `Quick test_progress_stream;
          Alcotest.test_case "engines unchanged when disabled" `Quick
            test_progress_disabled_differential;
          Alcotest.test_case "openmetrics grammar" `Quick
            test_openmetrics_grammar;
          Alcotest.test_case "watch view" `Quick test_watch_view;
          Alcotest.test_case "watch forward compat" `Quick
            test_watch_forward_compat;
          Alcotest.test_case "offline rebuild" `Quick test_offline_rebuild;
          Alcotest.test_case "span gc attrs" `Quick test_span_gc_attrs;
        ] );
    ]
