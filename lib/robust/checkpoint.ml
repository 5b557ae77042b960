type meta = (string * Hft_util.Json.t) list

(* Generic crash-only JSONL tape: a schema header line, then one JSON
   record per line, each append chaos-checked (Serialize site) and
   flushed.  [load] tolerates exactly the damage a kill can cause — an
   unparsable final line is dropped ([Hft_util.Json.parse_jsonl]) — and
   reports damage anywhere else as corruption.  The schema owner names
   its commit records and rolls back the uncommitted tail
   ([Hft_util.Json.committed]); [resume] is the rest of the protocol. *)
module Tape = struct
  type writer = { w_oc : out_channel }

  let write_line oc json =
    output_string oc (Hft_util.Json.to_string json);
    output_char oc '\n';
    flush oc

  let create ~path ~schema ~meta =
    let oc = open_out path in
    write_line oc (Hft_util.Json.tape_header ~schema ~meta);
    { w_oc = oc }

  let emit w json =
    Chaos.check Chaos.Serialize;
    write_line w.w_oc json

  let close w = close_out w.w_oc

  let load ~path ~schema =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | text ->
      (match Hft_util.Json.parse_jsonl text with
       | Error msg -> Error msg
       | Ok [] -> Error "empty tape"
       | Ok ((_, header) :: body) ->
         (match Hft_util.Json.tape_meta ~schema header with
          | Some meta -> Ok (meta, List.map snd body)
          | None -> Error ("not an " ^ schema ^ " tape")))

  (* Every check runs before the file is touched, and the compaction
     goes through a sibling renamed over the tape, so a kill or an I/O
     error at any point leaves the old tape whole.  It replays committed
     records, so it takes no chaos draws. *)
  let resume ~site ~hint ~path ~schema ~meta (header, records) restore =
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k header with
        | Some v' when v' = v -> ()
        | v' ->
          Validation.fail ~site ~hint
            (Printf.sprintf "%s: %s fingerprint mismatch (tape %s, run %s)"
               path k
               (Option.fold ~none:"none" ~some:Hft_util.Json.to_string v')
               (Hft_util.Json.to_string v)))
      meta;
    let restored = restore () in
    let w = create ~path:(path ^ ".compact") ~schema ~meta:header in
    List.iter (write_line w.w_oc) records;
    close w;
    Sys.rename (path ^ ".compact") path;
    (restored, { w_oc = open_out_gen [ Open_append ] 0o644 path })
end
