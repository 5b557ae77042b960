(* DSP filter study: the 5th-order elliptic wave filter through the
   partial-scan pipeline, measured down to gate-level sequential ATPG.

     dune exec examples/dsp_filter.exe *)

open Hft_cdfg
open Hft_core

let resources = [ (Op.Multiplier, 2); (Op.Alu, 2) ]

let () =
  let g = Bench_suite.ewf () in
  Printf.printf "elliptic wave filter: %d ops (%s), %d states\n\n"
    (Graph.n_ops g)
    (String.concat ", "
       (List.map
          (fun (c, n) -> Printf.sprintf "%d %s" n (Op.fu_class_to_string c))
          (Graph.op_profile g)))
    (List.length (Graph.state_vars g));

  (* Behavioural loop analysis. *)
  let sched = Hft_hls.List_sched.schedule g ~resources in
  let loops = Loops.enumerate g in
  Printf.printf "CDFG loops: %d\n" (List.length loops);
  List.iter
    (fun (tag, sel) ->
      Printf.printf "  %-22s %d scan vars -> %d scan registers\n" tag
        (List.length sel.Scan_vars.scan_vars)
        sel.Scan_vars.n_scan_registers)
    [ ("vertex-minimal (MFVS):", Scan_vars.select_mfvs g sched);
      ("effectiveness [33]:", Scan_vars.select_effective g sched);
      ("boundary vars [24]:", Scan_vars.select_boundary g sched) ];
  print_newline ();

  (* Conventional vs loop-aware synthesis. *)
  let conv = Flow.synthesize_conventional ~width:4 ~resources g in
  let scan = Flow.synthesize_for_partial_scan ~width:4 ~resources g in
  Hft_util.Pretty.print ~title:"flow comparison (width 4)"
    ~header:Flow.report_header
    [ Flow.report_row conv.Flow.report; Flow.report_row scan.Flow.report ];

  (* Gate level: sample faults, run sequential ATPG on both; the scan
     cells are the bits of the registers the flow annotated. *)
  let rng = Hft_util.Rng.create 41 in
  let atpg tag r =
    let nl, faults, scanned = Flow.expand_and_sample ~rng ~sample:40 r in
    let stats =
      Hft_scan.Partial_scan.atpg ~backtrack_limit:40 ~max_frames:3 nl ~faults
        ~scanned
    in
    Printf.printf
      "  %-14s %3d faults sampled: coverage %5s, %6d backtracks, %d scan cells\n"
      tag (List.length faults)
      (Hft_util.Pretty.pct (Hft_gate.Seq_atpg.fault_coverage stats))
      stats.Hft_gate.Seq_atpg.backtracks (List.length scanned)
  in
  print_endline "\ngate-level sequential ATPG (sampled faults):";
  atpg "no DFT" conv;
  atpg "partial scan" scan
