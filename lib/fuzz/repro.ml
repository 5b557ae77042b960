(* Self-contained reproducer files ("hft-repro/1").

   One JSON document per finding: the full (minimized) netlist, the
   oracle check that fired, the seed and canary flag needed to re-run
   it, and provenance (campaign trial, arm, minimizer effort).  A
   reproducer replays with nothing but this file — the corpus survives
   generator and portfolio changes because the circuit itself is
   stored, not its generation recipe. *)

open Hft_gate
open Hft_util

let schema = "hft-repro/1"

type t = {
  p_fingerprint : string;
  p_check : string;
  p_detail : string;
  p_seed : int;
  p_canary : bool;
  p_arm : string;
  p_trial : int;
  p_netlist : Netlist.t;
  p_original_nodes : int;
  p_minimize_steps : int;
}

(* The fingerprint identifies a finding class across runs: the check
   that fired, the oracle seed and the evidence text.  Deliberately
   excludes the netlist — the same bug found pre- and post-minimization
   must dedup to one corpus entry. *)
let fingerprint ~check ~seed ~detail =
  Digest.to_hex (Digest.string (check ^ "|" ^ string_of_int seed ^ "|" ^ detail))

let kind_name = function
  | Netlist.Pi -> "pi"
  | Netlist.Po -> "po"
  | Netlist.Dff -> "dff"
  | Netlist.Const0 -> "const0"
  | Netlist.Const1 -> "const1"
  | Netlist.Buf -> "buf"
  | Netlist.Not -> "not"
  | Netlist.And -> "and"
  | Netlist.Or -> "or"
  | Netlist.Nand -> "nand"
  | Netlist.Nor -> "nor"
  | Netlist.Xor -> "xor"
  | Netlist.Xnor -> "xnor"
  | Netlist.Mux2 -> "mux2"

let kind_of_name = function
  | "pi" -> Some Netlist.Pi
  | "po" -> Some Netlist.Po
  | "dff" -> Some Netlist.Dff
  | "const0" -> Some Netlist.Const0
  | "const1" -> Some Netlist.Const1
  | "buf" -> Some Netlist.Buf
  | "not" -> Some Netlist.Not
  | "and" -> Some Netlist.And
  | "or" -> Some Netlist.Or
  | "nand" -> Some Netlist.Nand
  | "nor" -> Some Netlist.Nor
  | "xor" -> Some Netlist.Xor
  | "xnor" -> Some Netlist.Xnor
  | "mux2" -> Some Netlist.Mux2
  | _ -> None

(* Nodes serialize in id order, so ids are implicit positions.  A DFF's
   D input may reference a later id (sequential loop); deserialization
   mirrors the generator's placeholder-then-fixup dance. *)
let netlist_json nl =
  let nodes = ref [] in
  for v = Netlist.n_nodes nl - 1 downto 0 do
    nodes :=
      Json.Obj
        [ ("kind", Json.String (kind_name (Netlist.kind nl v)));
          ("name", Json.String (Netlist.node_name nl v));
          ("fanins",
           Json.List
             (Array.to_list
                (Array.map (fun s -> Json.Int s) (Netlist.fanin nl v)))) ]
      :: !nodes
  done;
  Json.Obj
    [ ("name", Json.String (Netlist.circuit_name nl));
      ("nodes", Json.List !nodes) ]

let netlist_of_json_exn j =
  let ( let* ) = Result.bind in
  let str = function Json.String s -> Ok s | _ -> Error "expected string" in
  let* name =
    match Json.member "name" j with Some s -> str s | None -> Ok "repro"
  in
  let* nodes =
    match Json.member "nodes" j with
    | Some (Json.List l) -> Ok l
    | _ -> Error "missing nodes list"
  in
  let nl = Netlist.create ~name () in
  let fixups = ref [] in
  let* () =
    List.fold_left
      (fun acc nj ->
        let* () = acc in
        let* kname =
          match Json.member "kind" nj with
          | Some s -> str s
          | None -> Error "node missing kind"
        in
        let* kind =
          match kind_of_name kname with
          | Some k -> Ok k
          | None -> Error ("unknown node kind " ^ kname)
        in
        let* nname =
          match Json.member "name" nj with
          | Some s -> str s
          | None -> Ok ""
        in
        let* fanins =
          match Json.member "fanins" nj with
          | Some (Json.List l) ->
            List.fold_left
              (fun acc f ->
                let* acc = acc in
                match f with
                | Json.Int i -> Ok (i :: acc)
                | _ -> Error "non-integer fanin")
              (Ok []) l
            |> Result.map (fun l -> Array.of_list (List.rev l))
          | _ -> Error "node missing fanins"
        in
        let add k f =
          let v =
            if nname = "" then Netlist.add nl k f
            else Netlist.add nl ~name:nname k f
          in
          ignore v
        in
        match kind with
        | Netlist.Dff ->
          (* A DFF's D may be a forward reference (sequential loop):
             add on a placeholder, fix up once every node exists. *)
          let* src =
            if Array.length fanins = 1 then Ok fanins.(0)
            else Error "DFF with wrong fanin count"
          in
          if src >= 0 && src < Netlist.n_nodes nl then begin
            add Netlist.Dff [| src |];
            Ok ()
          end
          else begin
            let here = Netlist.n_nodes nl in
            if here = 0 then Error "DFF forward reference with no prior node"
            else begin
              add Netlist.Dff [| here - 1 |];
              fixups := (here, src) :: !fixups;
              Ok ()
            end
          end
        | k ->
          add k fanins;
          Ok ())
      (Ok ()) nodes
  in
  let* () =
    List.fold_left
      (fun acc (d, src) ->
        let* () = acc in
        if src >= 0 && src < Netlist.n_nodes nl then begin
          Netlist.set_fanin nl d 0 src;
          Ok ()
        end
        else Error "dangling DFF fanin")
      (Ok ()) !fixups
  in
  Netlist.validate nl;
  Ok nl

(* Construction raises typed diagnostics on malformed files (arity,
   dangling fanins, combinational cycles); fold them into the result. *)
let netlist_of_json j =
  match netlist_of_json_exn j with
  | r -> r
  | exception Hft_robust.Validation.Invalid d ->
    Error ("invalid netlist: " ^ Hft_robust.Validation.to_string d)
  | exception Invalid_argument m -> Error ("invalid netlist: " ^ m)

let to_json p =
  Json.Obj
    [ ("schema", Json.String schema);
      ("fingerprint", Json.String p.p_fingerprint);
      ("check", Json.String p.p_check);
      ("detail", Json.String p.p_detail);
      ("seed", Json.Int p.p_seed);
      ("canary", Json.Bool p.p_canary);
      ("arm", Json.String p.p_arm);
      ("trial", Json.Int p.p_trial);
      ("original_nodes", Json.Int p.p_original_nodes);
      ("minimize_steps", Json.Int p.p_minimize_steps);
      ("netlist", netlist_json p.p_netlist) ]

let of_json j =
  let ( let* ) = Result.bind in
  let field get k = Option.to_result ~none:("missing field " ^ k) (get k j) in
  let str = field Json.member_str and int = field Json.member_int in
  let* s = str "schema" in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "schema mismatch: %s, want %s" s schema)
  in
  let* p_fingerprint = str "fingerprint" in
  let* p_check = str "check" in
  let* p_detail = str "detail" in
  let* p_seed = int "seed" in
  let* p_canary =
    match Json.member "canary" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "missing field canary"
  in
  let* p_arm = str "arm" in
  let* p_trial = int "trial" in
  let* p_original_nodes = int "original_nodes" in
  let* p_minimize_steps = int "minimize_steps" in
  let* p_netlist =
    match Json.member "netlist" j with
    | Some nj -> netlist_of_json nj
    | None -> Error "missing field netlist"
  in
  Ok
    { p_fingerprint; p_check; p_detail; p_seed; p_canary; p_arm; p_trial;
      p_netlist; p_original_nodes; p_minimize_steps }

let filename p = "repro-" ^ String.sub p.p_fingerprint 0 12 ^ ".json"

(* Atomic write (tmp + rename): a kill mid-save leaves either the old
   corpus entry or none, never a torn file — resume rewrites it. *)
let save ~dir p =
  let path = Filename.concat dir (filename p) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string (to_json p));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path;
  path

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text ->
    (match Json.parse text with
     | Error m -> Error (path ^ ": " ^ m)
     | Ok j -> of_json j)

let replay p =
  fst
    (Oracle.run_check ~canary:p.p_canary ~name:p.p_check ~seed:p.p_seed
       p.p_netlist)
