(* Fault-forensics ledger: one lifecycle record per collapsed fault
   class of a test campaign.

   The ATPG engines register each class when they start (representative
   plus members, as display strings — this library knows nothing of
   netlists), then resolve it exactly once and charge search/simulation
   cost to it as they go.  The ledger answers "why is coverage X%": for
   every class, how it was resolved and what it cost, plus the
   aggregated coverage waterfall.  Everything is gated on
   [Config.enabled]; registration returns [-1] when disabled and every
   other entry point treats a negative handle as a no-op, so call sites
   need no guards of their own. *)

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

(* Growable internal storage; handles are indexes, so [charge] on a hot
   drop pass is two array reads and an add. *)
type mrow = {
  m_rep : string;
  m_members : string list;
  mutable m_res : resolution;
  mutable m_fsim : int;
  mutable m_impl : int;
  mutable m_btk : int;
  mutable m_gcuts : int;
}

type mtest = {
  mt_frames : int;
  mutable mt_rows : (int * int) option;
  mutable mt_vectors : bool array array;
  mutable mt_scan : bool array;
}

let rows_buf : mrow array ref = ref [||]
let n_rows_ = ref 0
let tests_buf : mtest array ref = ref [||]
let n_tests_ = ref 0

(* One mutex guards both growable buffers so registrations and charges
   from worker domains are never lost. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      rows_buf := [||];
      n_rows_ := 0;
      tests_buf := [||];
      n_tests_ := 0)

(* Run [f] against scratch row/test buffers, restoring the live ones
   afterwards.  Classes registered inside are invisible outside. *)
let isolated f =
  let saved =
    locked (fun () ->
        let s = (!rows_buf, !n_rows_, !tests_buf, !n_tests_) in
        rows_buf := [||];
        n_rows_ := 0;
        tests_buf := [||];
        n_tests_ := 0;
        s)
  in
  Fun.protect
    ~finally:(fun () ->
      locked (fun () ->
          let rb, nr, tb, nt = saved in
          rows_buf := rb;
          n_rows_ := nr;
          tests_buf := tb;
          n_tests_ := nt))
    f

let push buf n dummy v =
  let a = !buf in
  let cap = Array.length a in
  if !n = cap then begin
    let a' = Array.make (max 16 (2 * cap)) dummy in
    Array.blit a 0 a' 0 cap;
    a'.(cap) <- v;
    buf := a';
    n := cap + 1;
    cap
  end
  else begin
    a.(!n) <- v;
    incr n;
    !n - 1
  end

let dummy_row =
  { m_rep = ""; m_members = []; m_res = Never_targeted; m_fsim = 0;
    m_impl = 0; m_btk = 0; m_gcuts = 0 }

let dummy_test =
  { mt_frames = 0; mt_rows = None; mt_vectors = [||]; mt_scan = [||] }

let register_class ~rep ~members =
  if not !Config.enabled then -1
  else
    locked (fun () ->
        push rows_buf n_rows_ dummy_row
          { m_rep = rep; m_members = members; m_res = Never_targeted;
            m_fsim = 0; m_impl = 0; m_btk = 0; m_gcuts = 0 })

let resolution_key = function
  | Drop_detected _ -> "drop_detected"
  | Podem_detected _ -> "podem_detected"
  | Salvaged _ -> "salvaged"
  | Proved_untestable _ -> "untestable"
  | Aborted _ -> "aborted"
  | Never_targeted -> "never_targeted"

let resolve_now h res =
  if h >= 0 then
    locked (fun () -> if h < !n_rows_ then !rows_buf.(h).m_res <- res)

let resolve h res =
  (* A capturing domain defers the resolve so speculative work never
     reaches the shared ledger; the orchestrator replays committed tapes
     in class order. *)
  if not (Capture.defer (fun () -> resolve_now h res)) then resolve_now h res

let charge_now ?(implications = 0) ?(backtracks = 0) ?(guided_cuts = 0) h =
  if h >= 0 then
    locked (fun () ->
        if h < !n_rows_ then begin
          let r = !rows_buf.(h) in
          r.m_impl <- r.m_impl + implications;
          r.m_btk <- r.m_btk + backtracks;
          r.m_gcuts <- r.m_gcuts + guided_cuts
        end)

let charge ?implications ?backtracks ?guided_cuts h =
  if h >= 0 then
    if
      not
        (Capture.defer (fun () ->
             charge_now ?implications ?backtracks ?guided_cuts h))
    then charge_now ?implications ?backtracks ?guided_cuts h

let charge_fsim_events_now hs evs =
  locked (fun () ->
      Array.iteri
        (fun i h ->
          if h >= 0 && h < !n_rows_ then begin
            let r = !rows_buf.(h) in
            r.m_fsim <- r.m_fsim + evs.(i)
          end)
        hs)

let charge_fsim_events hs evs =
  if not (Capture.defer (fun () -> charge_fsim_events_now hs evs)) then
    charge_fsim_events_now hs evs

let register_test ~frames =
  if not !Config.enabled then -1
  else
    locked (fun () ->
        push tests_buf n_tests_ dummy_test
          { dummy_test with mt_frames = frames })

let annotate_last_test ~first_row ~vectors ~scan =
  if !Config.enabled then
    locked (fun () ->
        if !n_tests_ > 0 then begin
          let t = !tests_buf.(!n_tests_ - 1) in
          t.mt_rows <- Some (first_row, Array.length vectors);
          t.mt_vectors <- vectors;
          t.mt_scan <- scan
        end)

let n_classes () = locked (fun () -> !n_rows_)
let n_tests () = locked (fun () -> !n_tests_)

let row_of i =
  let m = !rows_buf.(i) in
  { lr_class = i; lr_rep = m.m_rep; lr_members = m.m_members;
    lr_resolution = m.m_res; lr_fsim_events = m.m_fsim;
    lr_implications = m.m_impl; lr_backtracks = m.m_btk;
    lr_guided_cuts = m.m_gcuts }

let rows () = List.init !n_rows_ row_of
let row h = locked (fun () -> row_of h)

let test_of i =
  let t = !tests_buf.(i) in
  { lt_id = i; lt_frames = t.mt_frames; lt_rows = t.mt_rows;
    lt_vectors = t.mt_vectors; lt_scan = t.mt_scan }

let tests () = List.init !n_tests_ test_of
let test i = locked (fun () -> test_of i)

(* A row read back from a tape: its charges (onto a freshly registered
   handle, so they add to zero) and its resolution. *)
let restore h r =
  charge_now ~implications:r.lr_implications ~backtracks:r.lr_backtracks
    ~guided_cuts:r.lr_guided_cuts h;
  charge_fsim_events_now [| h |] [| r.lr_fsim_events |];
  resolve h r.lr_resolution

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

let waterfall ?(rows = rows ()) () =
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

let waterfall_json ?(waterfall = waterfall ()) () =
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
let outcomes ?(rows = rows ()) () =
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
let top_expensive ?(rows = rows ()) ~k () =
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
    tp_waterfall = waterfall ~rows ();
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
