(* Fault-forensics ledger: one lifecycle record per collapsed fault
   class of a test campaign.

   The campaign that resolves the classes builds the rows (the ATPG
   engine keeps each class's resolution and charges while observability
   is on and returns them with its stats); faults and members are
   display strings, since this library knows nothing of netlists.  What
   lives here is what every holder of rows shares: the row and test
   types, the views over rows (the coverage waterfall, the most
   expensive classes, per-member outcomes) and the hft-ledger/1 tape
   codec and loader. *)

type resolution =
  | Drop_detected of { test : int }
  | Podem_detected of { test : int; backtracks : int; frames : int }
  | Salvaged of { test : int; patterns : int }
  | Proved_untestable of { frames : int }
  | Aborted of { budget : int; frames : int; reason : string option }
  | Never_targeted

type row = {
  lr_class : int;
  lr_rep : string;
  lr_members : string list;
  lr_resolution : resolution;
  lr_fsim_events : int;
  lr_implications : int;
  lr_backtracks : int;
  lr_guided_cuts : int;
}

type test = {
  lt_id : int;
  lt_frames : int;
  lt_rows : (int * int) option;
  lt_vectors : bool array array;
  lt_scan : bool array;
}

let resolution_key = function
  | Drop_detected _ -> "drop_detected"
  | Podem_detected _ -> "podem_detected"
  | Salvaged _ -> "salvaged"
  | Proved_untestable _ -> "untestable"
  | Aborted _ -> "aborted"
  | Never_targeted -> "never_targeted"

let cost r = r.lr_fsim_events + r.lr_implications + r.lr_backtracks

let resolution_to_string = function
  | Drop_detected { test } -> Printf.sprintf "drop-detected (test %d)" test
  | Podem_detected { test; backtracks; frames } ->
    Printf.sprintf "podem-detected (test %d, %d btk, %d frames)" test
      backtracks frames
  | Salvaged { test; patterns } ->
    Printf.sprintf "salvaged (test %d, %d random patterns)" test patterns
  | Proved_untestable { frames } ->
    Printf.sprintf "untestable (%d frames)" frames
  | Aborted { budget; frames; reason } ->
    Printf.sprintf "aborted (budget %d, %d frames%s)" budget frames
      (match reason with None -> "" | Some r -> ", " ^ r)
  | Never_targeted -> "never-targeted"

(* The waterfall columns in their reporting order. *)
let outcome_keys =
  [ "drop_detected"; "podem_detected"; "salvaged"; "aborted"; "untestable";
    "never_targeted" ]

let waterfall rows =
  List.map
    (fun k ->
      ( k,
        List.fold_left
          (fun (c, f) r ->
            if resolution_key r.lr_resolution = k then
              (c + 1, f + List.length r.lr_members)
            else (c, f))
          (0, 0) rows ))
    outcome_keys

let totals w =
  List.fold_left (fun (c, f) (_, (c', f')) -> (c + c', f + f')) (0, 0) w

let waterfall_json waterfall =
  let open Hft_util.Json in
  let classes, faults = totals waterfall in
  Obj
    (("classes", Int classes)
     :: ("faults", Int faults)
     :: List.map
          (fun (k, (c, f)) ->
            (k, Obj [ ("classes", Int c); ("faults", Int f) ]))
          waterfall)

(* Per-member outcome keys, for comparing two runs over one fault list
   (a member string names the same fault in both). *)
let outcomes rows =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = resolution_key r.lr_resolution in
      List.iter (fun m -> Hashtbl.replace tbl m k) r.lr_members)
    rows;
  tbl

let is_detection k =
  List.mem k [ "drop_detected"; "podem_detected"; "salvaged" ]

let contradicts k1 k2 =
  (is_detection k1 && k2 = "untestable")
  || (k1 = "untestable" && is_detection k2)

let resolution_to_json res =
  let open Hft_util.Json in
  let fields =
    match res with
    | Drop_detected { test } -> [ ("test", Int test) ]
    | Podem_detected { test; backtracks; frames } ->
      [ ("test", Int test); ("backtracks", Int backtracks);
        ("frames", Int frames) ]
    | Salvaged { test; patterns } ->
      [ ("test", Int test); ("patterns", Int patterns) ]
    | Proved_untestable { frames } -> [ ("frames", Int frames) ]
    | Aborted { budget; frames; reason } ->
      ("budget", Int budget) :: ("frames", Int frames)
      :: (match reason with None -> [] | Some r -> [ ("reason", String r) ])
    | Never_targeted -> []
  in
  Obj (("outcome", String (resolution_key res)) :: fields)

(* Inverse of {!resolution_to_json}, for tapes. *)
let resolution_of_json j =
  let open Hft_util.Json in
  let int k = member_int k j and str k = member_str k j in
  match member "outcome" j with
  | Some (String "drop_detected") ->
    Option.map (fun test -> Drop_detected { test }) (int "test")
  | Some (String "podem_detected") ->
    (match (int "test", int "backtracks", int "frames") with
     | Some test, Some backtracks, Some frames ->
       Some (Podem_detected { test; backtracks; frames })
     | _ -> None)
  | Some (String "salvaged") ->
    (match (int "test", int "patterns") with
     | Some test, Some patterns -> Some (Salvaged { test; patterns })
     | _ -> None)
  | Some (String "untestable") ->
    Option.map (fun frames -> Proved_untestable { frames }) (int "frames")
  | Some (String "aborted") ->
    (match (int "budget", int "frames") with
     | Some budget, Some frames ->
       Some (Aborted { budget; frames; reason = str "reason" })
     | _ -> None)
  | Some (String "never_targeted") -> Some Never_targeted
  | _ -> None

(* The ledger-test id a detection-carrying resolution points at, if
   any: the tape loader rolls back an uncommitted final transaction by
   it, and resume rebuilds each test's detected faults from it. *)
let resolution_test = function
  | Drop_detected { test } | Podem_detected { test; _ } | Salvaged { test; _ }
    -> Some test
  | Proved_untestable _ | Aborted _ | Never_targeted -> None

let row_to_json r =
  let open Hft_util.Json in
  Obj
    [ ("class", Int r.lr_class);
      ("rep", String r.lr_rep);
      ("members", List (List.map (fun m -> String m) r.lr_members));
      ("resolution", resolution_to_json r.lr_resolution);
      ("fsim_events", Int r.lr_fsim_events);
      ("implications", Int r.lr_implications);
      ("backtracks", Int r.lr_backtracks);
      ("guided_cuts", Int r.lr_guided_cuts);
      ("cost", Int (cost r)) ]

(* [Some] of every element's decoding, or [None] if any fails. *)
let list_of f = function
  | Some (Hft_util.Json.List l) ->
    (try Some (List.map (fun x -> Option.get (f x)) l)
     with Invalid_argument _ -> None)
  | _ -> None

(* Inverse of [row_to_json]; the derived "cost" field is not read. *)
let row_of_json j =
  let ( let* ) = Option.bind and int k = Hft_util.Json.member_int k j in
  let* lr_class = int "class" in
  let* lr_rep = Hft_util.Json.member_str "rep" j in
  let* lr_members =
    list_of
      (function Hft_util.Json.String m -> Some m | _ -> None)
      (Hft_util.Json.member "members" j)
  in
  let* lr_resolution =
    Option.bind (Hft_util.Json.member "resolution" j) resolution_of_json
  in
  let* lr_fsim_events = int "fsim_events" in
  let* lr_implications = int "implications" in
  let* lr_backtracks = int "backtracks" in
  let* lr_guided_cuts = int "guided_cuts" in
  Some
    { lr_class; lr_rep; lr_members; lr_resolution; lr_fsim_events;
      lr_implications; lr_backtracks; lr_guided_cuts }

(* Vectors travel as "0101" bit strings. *)
let bits_to_json bits =
  Hft_util.Json.String
    (String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0'))

let bits_of_json = function
  | Hft_util.Json.String s when String.for_all (fun c -> c = '0' || c = '1') s
    ->
    Some (Array.init (String.length s) (fun i -> s.[i] = '1'))
  | _ -> None

(* A test carries its stimulus exactly when the flow recorded its
   pattern-store rows. *)
let test_to_json t =
  let open Hft_util.Json in
  Obj
    (("test", Int t.lt_id)
     :: ("frames", Int t.lt_frames)
     ::
     (match t.lt_rows with
      | None -> []
      | Some (first, n) ->
        [ ("first_row", Int first); ("n_rows", Int n);
          ("vectors",
           List (List.map bits_to_json (Array.to_list t.lt_vectors)));
          ("scan", bits_to_json t.lt_scan) ]))

let test_of_json j =
  let ( let* ) = Option.bind and int k = Hft_util.Json.member_int k j in
  let* lt_id = int "test" in
  let* lt_frames = int "frames" in
  match (int "first_row", int "n_rows") with
  | None, None ->
    Some { lt_id; lt_frames; lt_rows = None; lt_vectors = [||]; lt_scan = [||] }
  | Some first, Some n ->
    let* vectors = list_of bits_of_json (Hft_util.Json.member "vectors" j) in
    let* lt_scan = Option.bind (Hft_util.Json.member "scan" j) bits_of_json in
    Some
      { lt_id; lt_frames; lt_rows = Some (first, n);
        lt_vectors = Array.of_list vectors; lt_scan }
  | _ -> None

(* Most expensive first; class id breaks ties so the order is total. *)
let top_expensive ~k rows =
  rows
  |> List.sort (fun a b ->
         match compare (cost b) (cost a) with
         | 0 -> compare a.lr_class b.lr_class
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let expensive_table = function
  | [] -> ""
  | rows ->
    Printf.sprintf "\nmost expensive fault classes (top %d):\n%s"
      (List.length rows)
      (Hft_util.Pretty.render
         ~header:
           [ "class"; "fault"; "resolution"; "fsim ev"; "impl"; "btk"; "cost" ]
         (List.map
            (fun r ->
              [ string_of_int r.lr_class; r.lr_rep;
                resolution_to_string r.lr_resolution;
                string_of_int r.lr_fsim_events;
                string_of_int r.lr_implications;
                string_of_int r.lr_backtracks; string_of_int (cost r) ])
            rows))

let expensive_json rows = Hft_util.Json.List (List.map row_to_json rows)

(* ------------------------------------------------------------------ *)
(* The campaign tape (hft-ledger/1) and tapes read back               *)

let schema = "hft-ledger/1"

type record =
  | Class of row
  | Test of test
  | End of { classes : int; tests : int }

let record_to_json = function
  | Class r -> row_to_json r
  | Test t -> test_to_json t
  | End { classes; tests } ->
    Hft_util.Json.(
      Obj [ ("end", Obj [ ("classes", Int classes); ("tests", Int tests) ]) ])

type tape = {
  tp_meta : (string * Hft_util.Json.t) list;
  tp_rows : row list;
  tp_tests : test list;
  tp_waterfall : (string * (int * int)) list;
  tp_records : Hft_util.Json.t list;
  tp_finished : bool;
}

exception Bad_tape of string

let bad line msg = raise (Bad_tape (Printf.sprintf "line %d: %s" line msg))

(* An hft-ledger/1 tape is a stream of test transactions — the test
   line, its drop rows, then the podem_detected or salvaged row that
   commits it — interleaved with rows that need no test, closed by an
   end marker once the campaign finishes.  The whole tape is validated
   first: test ids must be dense and in order, a class may resolve
   once, a row may only name a test written before it, and the end
   marker's counts catch a lost line in a finished tape.  Then what
   follows the last commit record rolls back: an interrupted tape's
   final test and its drop rows, unless its commit row landed. *)
let ledger_tape meta docs =
  let classes = Hashtbl.create 64 and n_tests = ref 0 in
  let finished = ref false in
  let record (line, j) =
    if !finished then bad line "record after the end marker";
    let int k =
      Option.bind (Hft_util.Json.member "end" j) (Hft_util.Json.member_int k)
    in
    match (Hft_util.Json.member "class" j, Hft_util.Json.member "test" j) with
    | Some _, _ ->
      (match row_of_json j with
       | None -> bad line "malformed class row"
       | Some r ->
         if Hashtbl.mem classes r.lr_class then
           bad line (Printf.sprintf "class %d resolved twice" r.lr_class);
         (match resolution_test r.lr_resolution with
          | Some t when t >= !n_tests ->
            bad line (Printf.sprintf "class %d names unwritten test %d"
                        r.lr_class t)
          | _ -> ());
         Hashtbl.replace classes r.lr_class ();
         (j, Class r))
    | None, Some _ ->
      (match test_of_json j with
       | None -> bad line "malformed test"
       | Some t when t.lt_id <> !n_tests ->
         bad line (Printf.sprintf "test %d out of sequence (expected %d)"
                     t.lt_id !n_tests)
       | Some t ->
         incr n_tests;
         (j, Test t))
    | None, None ->
      (match (int "classes", int "tests") with
       | Some c, Some t
         when c = Hashtbl.length classes && t = !n_tests
              && Hashtbl.fold (fun k () ok -> ok && k < c) classes true ->
         finished := true;
         (j, End { classes = c; tests = t })
       | Some c, Some t ->
         bad line
           (Printf.sprintf
              "end marker counts %d classes and %d tests, the tape holds \
               %d and %d" c t (Hashtbl.length classes) !n_tests)
       | _ -> bad line "neither a class row, a test nor an end marker")
  in
  let kept =
    Hft_util.Json.committed (List.map record docs) ~commits:(function
      | _, (Test _ | Class { lr_resolution = Drop_detected _; _ }) -> false
      | _, (Class _ | End _) -> true)
  in
  let rows =
    List.sort (fun a b -> compare a.lr_class b.lr_class)
      (List.filter_map (function _, Class r -> Some r | _ -> None) kept)
  in
  { tp_meta = meta; tp_rows = rows;
    tp_tests = List.filter_map (function _, Test t -> Some t | _ -> None) kept;
    tp_waterfall = waterfall rows;
    tp_records =
      List.filter_map (function _, End _ -> None | j, _ -> Some j) kept;
    tp_finished = !finished }

(* The first object must be an hft-ledger/1 header. *)
let of_jsonl text =
  match Hft_util.Json.parse_jsonl text with
  | Error e -> Error e
  | Ok [] -> Error "empty tape"
  | Ok ((line, first) :: rest) ->
    (try
       match Hft_util.Json.tape_meta ~schema first with
       | Some meta -> Ok (ledger_tape meta rest)
       | None -> bad line ("not an " ^ schema ^ " header")
     with Bad_tape msg -> Error msg)
