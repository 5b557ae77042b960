open Hft_gate

let select_gate_level nl =
  let s = Gsgraph.of_netlist nl in
  Gsgraph.scan_selection s

let select_rtl_level d ex =
  let s = Hft_rtl.Sgraph.of_datapath d in
  Expand.reg_flops ex (Hft_rtl.Sgraph.scan_selection s)

let atpg ?backtrack_limit ?max_frames ?on_test ?resolved ?on_resolved ?guidance
    ?on_par_stats ?jobs nl ~faults ~scanned =
  Hft_obs.Span.with_ "partial-scan-atpg" @@ fun () ->
  Seq_atpg.run ?backtrack_limit ?max_frames ?on_test ?resolved ?on_resolved
    ?guidance ?on_par_stats ?jobs nl ~faults ~scanned
