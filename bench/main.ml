(* Experiment harness: the reproduced tables and figures.

   Usage:
     dune exec bench/main.exe                 -- all experiment tables
     dune exec bench/main.exe -- e1_scanregs  -- selected experiments only
     dune exec bench/main.exe -- --json       -- one JSON object per table row
                                                 on stdout (banners on stderr) *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--json" args then Hft_obs.Table.mode := Hft_obs.Table.Jsonl;
  let selected =
    match List.filter (fun a -> a <> "--json") args with
    | [] -> Experiments.all
    | names ->
      List.filter (fun (n, _) -> List.mem n names) Experiments.all
  in
  if selected = [] then begin
    Printf.eprintf "unknown experiment; available:\n";
    List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) Experiments.all;
    exit 1
  end;
  List.iter (fun (_, f) -> f ()) selected
