type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest decimal form that parses back to exactly [f].  JSON has no
   nan/inf literals, so those degrade to null rather than emitting a
   token no parser accepts. *)
let float_repr f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None ->
      (match try_prec 16 with
       | Some s -> s
       | None -> Printf.sprintf "%.17g" f)

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        vs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          go v)
        kvs;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    (* Offsets alone are hard to act on in multi-line documents. *)
    let line = ref 1 and bol = ref 0 in
    String.iteri
      (fun i c ->
        if i < !pos && c = '\n' then begin
          incr line;
          bol := i + 1
        end)
      s;
    raise
      (Bad
         (Printf.sprintf "%s at offset %d (line %d, column %d)" msg !pos !line
            (!pos - !bol + 1)))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           if !pos + 4 >= n then fail "bad \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail "bad \\u escape"
            | Some code ->
              (* Keep it simple: BMP code points as UTF-8. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4)
         | _ -> fail "bad escape");
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
          | _ -> false)
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None ->
      (match float_of_string_opt tok with
       | Some f -> Float f
       | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let member_str k j =
  match member k j with Some (String s) -> Some s | _ -> None

let member_int k j =
  match member k j with Some (Int i) -> Some i | _ -> None

let member_float k j =
  match member k j with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

(* Crash-only tapes: one object per line, each append flushed, so a
   kill can tear only the line being written — the last one. *)
let tape_header ~schema ~meta =
  Obj [ ("schema", String schema); ("meta", Obj meta) ]

let tape_meta ~schema h =
  match member "schema" h with
  | Some (String s) when s = schema ->
    Some (match member "meta" h with Some (Obj meta) -> meta | _ -> [])
  | _ -> None

let parse_jsonl text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (line, l) :: rest ->
      (match parse l with
       | Ok (Obj _ as j) -> go ((line, j) :: acc) rest
       | Ok _ -> Error (Printf.sprintf "line %d: not a JSON object" line)
       | Error _ when rest = [] -> Ok (List.rev acc)
       | Error e -> Error (Printf.sprintf "line %d: %s" line e))
  in
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")
  |> go []

let committed ~commits records =
  let rec drop = function
    | r :: rest when not (commits r) -> drop rest
    | kept -> kept
  in
  List.rev (drop (List.rev records))
