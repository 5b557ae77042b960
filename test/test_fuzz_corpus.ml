(* Committed fuzz reproducers stay alive: every test/corpus/*.json
   must load, replay (the finding still fires under its recorded
   canary flag), and — for canary reproducers — stay quiet under the
   real engine, proving the historical bug remains fixed. *)

let corpus_dir = "corpus"

let corpus_files () =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat corpus_dir)
  else []

let test_replays path () =
  match Hft_fuzz.Repro.load path with
  | Error m -> Alcotest.failf "unreadable reproducer: %s" m
  | Ok p ->
    Alcotest.(check string)
      "file name matches its fingerprint"
      (Hft_fuzz.Repro.filename p) (Filename.basename path);
    Alcotest.(check bool)
      "minimized form is no larger than the original" true
      (Hft_gate.Netlist.n_nodes p.Hft_fuzz.Repro.p_netlist
       <= p.Hft_fuzz.Repro.p_original_nodes);
    let findings = Hft_fuzz.Repro.replay p in
    Alcotest.(check bool) "finding reproduces" true (findings <> []);
    if p.Hft_fuzz.Repro.p_canary then begin
      (* The canary reproducer documents a *fixed* bug: with the real
         engine (propagation fallbacks on) the same circuit and check
         must be quiet.  If this fires, the historical unsoundness has
         regressed. *)
      let real, _ =
        Hft_fuzz.Oracle.run_check ~canary:false ~name:p.Hft_fuzz.Repro.p_check
          ~seed:p.Hft_fuzz.Repro.p_seed p.Hft_fuzz.Repro.p_netlist
      in
      Alcotest.(check (list string))
        "real engine is quiet (the bug is still fixed)" []
        (List.map
           (fun f -> f.Hft_fuzz.Oracle.f_detail)
           real)
    end

let () =
  let files = corpus_files () in
  if files = [] then failwith "test/corpus is empty: no reproducers to replay";
  Alcotest.run "hft_fuzz_corpus"
    [
      ( "replay",
        List.map
          (fun path ->
            Alcotest.test_case (Filename.basename path) `Quick
              (test_replays path))
          files );
    ]
