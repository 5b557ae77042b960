type meta = (string * Hft_util.Json.t) list

(* Generic crash-only JSONL tape: a schema header line, then one JSON
   record per line, each append chaos-checked (Serialize site) and
   flushed.  [load] tolerates exactly the damage a kill can cause — an
   unparsable final line is dropped ([Hft_util.Json.parse_jsonl]) — and
   reports damage anywhere else as corruption.  Transaction semantics
   (which trailing records form an uncommitted suffix) belong to the
   schema owner: [Hft_obs.Ledger.of_jsonl] rolls back an uncommitted
   test of an hft-ledger/1 tape, [Hft_fuzz.State] rolls back findings
   with no trial commit marker of an hft-fuzz/1 tape. *)
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

  let reopen ~path =
    { w_oc = open_out_gen [ Open_append; Open_creat ] 0o644 path }

  let emit w json =
    Chaos.check Chaos.Serialize;
    write_line w.w_oc json

  let emit_raw w json = write_line w.w_oc json

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
end
