open Hft_gate
open Hft_lint
module Scoap = Hft_analysis.Scoap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let has_code code diags =
  List.exists (fun d -> d.Diagnostic.code = code) diags

let errors_with_code code diags =
  List.exists
    (fun d ->
      d.Diagnostic.code = code && d.Diagnostic.severity = Diagnostic.Error)
    diags

(* ------------------------------------------------------------------ *)
(* The paper's worked example: Fig. 1 bindings                        *)
(* ------------------------------------------------------------------ *)

let fig1_lint which =
  let g, d =
    Hft_core.Fig1_exp.datapath
      (match which with `B -> Hft_core.Fig1_exp.B | `C -> Hft_core.Fig1_exp.C)
  in
  Engine.lint_datapath ~graph:g d

let test_fig1_b_raises_l001 () =
  let diags = fig1_lint `B in
  check "loop-creating binding raises HFT-L001" true
    (errors_with_code "HFT-L001" diags);
  check "result is not clean" false (Engine.clean diags)

let test_fig1_c_clean () =
  let diags = fig1_lint `C in
  check "no HFT-L001 on self-loop-only binding" false
    (has_code "HFT-L001" diags);
  check "self-loop-only binding lints clean" true (Engine.clean diags);
  (* Self-loops still surface as range warnings, not errors. *)
  check "self-loops reported as HFT-L002 warnings" true
    (has_code "HFT-L002" diags)

(* ------------------------------------------------------------------ *)
(* The lint-as-oracle contract: every DFT flow lints clean            *)
(* ------------------------------------------------------------------ *)

let test_flows_lint_clean () =
  List.iter
    (fun bench ->
      let g = Hft_cdfg.Bench_suite.by_name bench in
      List.iter
        (fun kind ->
          let r = Hft_core.Flow.synthesize kind g in
          let diags = Engine.lint_flow r in
          check
            (Printf.sprintf "%s/%s lints clean" bench
               (Hft_core.Flow.flow_kind_to_string kind))
            true (Engine.clean diags))
        [ Hft_core.Flow.Partial_scan; Hft_core.Flow.Bist ])
    [ "diffeq"; "tseng" ]

let test_conventional_diffeq_has_loop_errors () =
  (* The conventional flow leaves assignment loops unbroken; lint must
     say so — that is the whole point of the tool. *)
  let g = Hft_cdfg.Bench_suite.by_name "diffeq" in
  let r = Hft_core.Flow.synthesize Hft_core.Flow.Conventional g in
  check "conventional diffeq raises HFT-L001" true
    (errors_with_code "HFT-L001" (Engine.lint_flow r))

(* ------------------------------------------------------------------ *)
(* Golden SCOAP values on a hand-computed netlist                     *)
(* ------------------------------------------------------------------ *)

(* sel ? xor(a,b) : and(a,b), one PO.  Values below are hand-derived
   from the rules documented in scoap.mli. *)
let test_scoap_golden_mux () =
  let nl = Netlist.create ~name:"golden" () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Pi [||] in
  let sel = Netlist.add nl ~name:"sel" Netlist.Pi [||] in
  let and1 = Netlist.add nl ~name:"and1" Netlist.And [| a; b |] in
  let xor1 = Netlist.add nl ~name:"xor1" Netlist.Xor [| a; b |] in
  let mux = Netlist.add nl ~name:"mux" Netlist.Mux2 [| sel; and1; xor1 |] in
  let _po = Netlist.add nl ~name:"out" Netlist.Po [| mux |] in
  let m = Scoap.analyze nl in
  check_int "cc0(a)" 1 m.Scoap.cc0.(a);
  check_int "cc1(a)" 1 m.Scoap.cc1.(a);
  check_int "cc0(and1)" 2 m.Scoap.cc0.(and1);
  check_int "cc1(and1)" 3 m.Scoap.cc1.(and1);
  check_int "cc0(xor1)" 3 m.Scoap.cc0.(xor1);
  check_int "cc1(xor1)" 3 m.Scoap.cc1.(xor1);
  check_int "cc0(mux)" 4 m.Scoap.cc0.(mux);
  check_int "cc1(mux)" 5 m.Scoap.cc1.(mux);
  check_int "co(mux)" 0 m.Scoap.co.(mux);
  check_int "co(and1)" 2 m.Scoap.co.(and1);
  check_int "co(xor1)" 2 m.Scoap.co.(xor1);
  check_int "co(sel)" 6 m.Scoap.co.(sel);
  check_int "co(a)" 4 m.Scoap.co.(a);
  check_int "co(b)" 4 m.Scoap.co.(b);
  (* Purely combinational: sequential measures are all zero. *)
  check_int "sc0(mux)" 0 m.Scoap.sc0.(mux);
  check_int "so(a)" 0 m.Scoap.so.(a)

let test_scoap_golden_dff () =
  let nl = Netlist.create ~name:"seq" () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let d1 = Netlist.add nl ~name:"d1" Netlist.Dff [| a |] in
  let d2 = Netlist.add nl ~name:"d2" Netlist.Dff [| d1 |] in
  let _po = Netlist.add nl ~name:"out" Netlist.Po [| d2 |] in
  let m = Scoap.analyze nl in
  (* Each flop adds 1 to both flavours of controllability and to
     sequential observability. *)
  check_int "cc0(d1)" 2 m.Scoap.cc0.(d1);
  check_int "cc0(d2)" 3 m.Scoap.cc0.(d2);
  check_int "sc0(a)" 0 m.Scoap.sc0.(a);
  check_int "sc0(d1)" 1 m.Scoap.sc0.(d1);
  check_int "sc1(d2)" 2 m.Scoap.sc1.(d2);
  check_int "so(d2)" 0 m.Scoap.so.(d2);
  check_int "so(d1)" 1 m.Scoap.so.(d1);
  check_int "so(a)" 2 m.Scoap.so.(a);
  check_int "co(a)" 2 m.Scoap.co.(a)

let test_scoap_unobservable_is_infinite () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.Not [| a |] in
  (* [g] drives nothing: unobservable. *)
  let m = Scoap.analyze nl in
  check "dangling net unobservable" true (Scoap.is_inf m.Scoap.co.(g));
  check "a unobservable too" true (Scoap.is_inf m.Scoap.co.(a))

(* ------------------------------------------------------------------ *)
(* Netlist-level rules: combinational cycles, dangling nets           *)
(* ------------------------------------------------------------------ *)

let cyclic_netlist () =
  let nl = Netlist.create ~name:"cyclic" () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.And [| a; a |] in
  let g2 = Netlist.add nl Netlist.Or [| g1; a |] in
  let _po = Netlist.add nl Netlist.Po [| g2 |] in
  (* Close the loop: g1's second input becomes g2. *)
  Netlist.set_fanin nl g1 1 g2;
  (nl, g1, g2)

let test_comb_cycle_detected () =
  let nl, g1, g2 = cyclic_netlist () in
  match Rules.comb_cycles nl with
  | [ cyc ] ->
    check "cycle contains g1" true (List.mem g1 cyc);
    check "cycle contains g2" true (List.mem g2 cyc)
  | other ->
    Alcotest.failf "expected exactly one cycle, got %d" (List.length other)

let test_scoap_total_on_cycles () =
  (* SCOAP must not diverge or raise on a cyclic netlist; the loop is
     still controllable from outside through the PI. *)
  let nl, g1, g2 = cyclic_netlist () in
  let m = Scoap.analyze nl in
  check_int "cc0(g1) via PI" 2 m.Scoap.cc0.(g1);
  check_int "cc0(g2)" 4 m.Scoap.cc0.(g2)

let test_dangling_detected () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.Not [| a |] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let _po = Netlist.add nl Netlist.Po [| b |] in
  check "dangling gate flagged" true (List.mem g (Rules.dangling_nets nl))

(* ------------------------------------------------------------------ *)
(* HFT-L006: degraded BIST register kinds are caught                  *)
(* ------------------------------------------------------------------ *)

let test_l006_degraded_bist_register () =
  let g = Hft_cdfg.Bench_suite.by_name "diffeq" in
  let r = Hft_core.Flow.synthesize Hft_core.Flow.Bist g in
  let d = r.Hft_core.Flow.datapath in
  check "bist flow lints clean before degradation" true
    (Engine.clean (Engine.lint_datapath d));
  let plan = Hft_bist.Bilbo.plan d in
  (* Strip the BIST capability from one register the plan relies on. *)
  let victim =
    let rec find r =
      if r >= Hft_rtl.Datapath.n_regs d then
        Alcotest.fail "no register with a BIST role"
      else if plan.Hft_bist.Bilbo.roles.(r) <> Hft_bist.Bilbo.R_none then r
      else find (r + 1)
    in
    find 0
  in
  d.Hft_rtl.Datapath.regs.(victim).Hft_rtl.Datapath.r_kind <-
    Hft_rtl.Datapath.Plain;
  check "degraded register raises HFT-L006" true
    (errors_with_code "HFT-L006" (Engine.lint_datapath d))

(* ------------------------------------------------------------------ *)
(* Reporting: JSON round-trips through the parser                     *)
(* ------------------------------------------------------------------ *)

let test_json_report_parses () =
  let g, d = Hft_core.Fig1_exp.datapath Hft_core.Fig1_exp.B in
  let diags = Engine.lint_datapath ~graph:g d in
  let json =
    Report.to_json
      ~meta:[ ("bench", Hft_util.Json.String "fig1b") ]
      ~datapath:d diags
  in
  let text = Hft_util.Json.to_string json in
  match Hft_util.Json.parse text with
  | Error msg -> Alcotest.failf "emitted JSON does not parse: %s" msg
  | Ok v ->
    check "bench field survives" true
      (Hft_util.Json.member "bench" v
      = Some (Hft_util.Json.String "fig1b"));
    (match Hft_util.Json.member "summary" v with
     | Some s ->
       (match Hft_util.Json.member "errors" s with
        | Some (Hft_util.Json.Int n) ->
          check "at least one error for fig1b" true (n >= 1)
        | _ -> Alcotest.fail "summary.errors missing")
     | None -> Alcotest.fail "summary missing");
    (match Hft_util.Json.member "diagnostics" v with
     | Some (Hft_util.Json.List l) ->
       check_int "diagnostic count matches" (List.length diags)
         (List.length l)
     | _ -> Alcotest.fail "diagnostics missing")

let test_json_parser_edges () =
  let ok s = match Hft_util.Json.parse s with Ok _ -> true | Error _ -> false in
  check "escapes" true (ok "[1, \"a\\n\\u00e9\", {\"k\": null}, -2.5e3]");
  check "empty containers" true (ok "{\"a\": [], \"b\": {}}");
  check "trailing garbage rejected" false (ok "{} x");
  check "unterminated rejected" false (ok "[1, 2");
  check "bare word rejected" false (ok "nope")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "fig1",
        [
          Alcotest.test_case "binding (b) raises HFT-L001" `Quick
            test_fig1_b_raises_l001;
          Alcotest.test_case "binding (c) lints clean" `Quick
            test_fig1_c_clean;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "DFT flows lint clean" `Quick
            test_flows_lint_clean;
          Alcotest.test_case "conventional flow flagged" `Quick
            test_conventional_diffeq_has_loop_errors;
        ] );
      ( "scoap",
        [
          Alcotest.test_case "golden mux circuit" `Quick test_scoap_golden_mux;
          Alcotest.test_case "golden DFF chain" `Quick test_scoap_golden_dff;
          Alcotest.test_case "unobservable is infinite" `Quick
            test_scoap_unobservable_is_infinite;
          Alcotest.test_case "total on cycles" `Quick
            test_scoap_total_on_cycles;
        ] );
      ( "rules",
        [
          Alcotest.test_case "comb cycle" `Quick test_comb_cycle_detected;
          Alcotest.test_case "dangling net" `Quick test_dangling_detected;
          Alcotest.test_case "degraded BIST register" `Quick
            test_l006_degraded_bist_register;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_json_report_parses;
          Alcotest.test_case "JSON parser edges" `Quick test_json_parser_edges;
        ] );
    ]
