type t = {
  sp_name : string;
  mutable sp_attrs : (string * string) list; (* reverse insertion order *)
  sp_start : float;
  mutable sp_elapsed : float;
  mutable sp_children : t list; (* reverse order *)
}

let name t = t.sp_name
let elapsed t = t.sp_elapsed
let start t = t.sp_start

(* [sp_attrs] is most-recent-first, so keeping each key's first
   occurrence makes repeated [add_attr] last-write-win; the surviving
   entries come out in final-write order. *)
let attrs t =
  let seen = Hashtbl.create 8 in
  List.rev
    (List.filter
       (fun (k, _) ->
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)
       t.sp_attrs)

let children t = List.rev t.sp_children

(* Current trace: finished roots plus the stack of open spans.  One
   process-wide trace is enough for a batch tool; the CLI resets it
   around each subcommand. *)
let finished_roots : t list ref = ref []
let stack : t list ref = ref []

let reset () =
  finished_roots := [];
  stack := []

(* Run [f] against a scratch trace (empty roots and stack), restoring
   the live one afterwards.  Spans opened inside never attach to outer
   spans and never appear in the exported trace. *)
let isolated f =
  let saved = (!finished_roots, !stack) in
  reset ();
  Fun.protect
    ~finally:(fun () ->
      let r, s = saved in
      finished_roots := r;
      stack := s)
    f

let roots () = List.rev !finished_roots

let add_attr k v =
  if !Config.enabled then
    match !stack with
    | [] -> ()
    | sp :: _ -> sp.sp_attrs <- (k, v) :: sp.sp_attrs

let add_attr_int k v = add_attr k (string_of_int v)

let with_ ?(attrs = []) name f =
  if not !Config.enabled then f ()
  else begin
    let sp =
      { sp_name = name; sp_attrs = List.rev attrs; sp_start = Clock.now ();
        sp_elapsed = 0.0; sp_children = [] }
    in
    (* Allocation profile of the phase, when asked for: quick_stat is a
       handful of loads (no heap walk; [Gc.minor_words] separately
       because quick_stat's minor figure excludes the live minor heap),
       and the deltas land as ordinary attributes so every exporter
       (render, Chrome trace) carries them for free. *)
    let gc0 =
      if !Config.gc_stats then Some (Gc.quick_stat (), Gc.minor_words ())
      else None
    in
    stack := sp :: !stack;
    let finish () =
      sp.sp_elapsed <- Clock.now () -. sp.sp_start;
      (match gc0 with
       | None -> ()
       | Some (g0, m0) ->
         let g1 = Gc.quick_stat () in
         let words f = Printf.sprintf "%.0f" f in
         sp.sp_attrs <-
           ("gc_compact",
            string_of_int (g1.Gc.compactions - g0.Gc.compactions))
           :: ("gc_major_w", words (g1.Gc.major_words -. g0.Gc.major_words))
           :: ("gc_minor_w", words (Gc.minor_words () -. m0))
           :: sp.sp_attrs);
      (match !stack with
       | top :: rest when top == sp -> stack := rest
       | _ ->
         (* A callee escaped with spans still open (exception paths
            unwound by Fun.protect keep this balanced; this is pure
            defence).  Drop down to this span. *)
         let rec pop = function
           | top :: rest when top == sp -> rest
           | _ :: rest -> pop rest
           | [] -> []
         in
         stack := pop !stack);
      match !stack with
      | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
      | [] -> finished_roots := sp :: !finished_roots
    in
    Fun.protect ~finally:finish f
  end

let rec count t = 1 + List.fold_left (fun n c -> n + count c) 0 (children t)

let render_one t =
  let buf = Buffer.create 256 in
  let rec go depth t =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf t.sp_name;
    Buffer.add_string buf (Printf.sprintf "  %.3f ms" (1e3 *. t.sp_elapsed));
    (match attrs t with
     | [] -> ()
     | kvs ->
       Buffer.add_string buf "  {";
       List.iteri
         (fun i (k, v) ->
           if i > 0 then Buffer.add_string buf ", ";
           Buffer.add_string buf k;
           Buffer.add_char buf '=';
           Buffer.add_string buf v)
         kvs;
       Buffer.add_char buf '}');
    Buffer.add_char buf '\n';
    List.iter (go (depth + 1)) (children t)
  in
  go 0 t;
  Buffer.contents buf

let render () = String.concat "" (List.map render_one (roots ()))

let rec to_json t =
  Hft_util.Json.Obj
    [ ("name", Hft_util.Json.String t.sp_name);
      ("elapsed_ms", Hft_util.Json.Float (1e3 *. t.sp_elapsed));
      ("attrs",
       Hft_util.Json.Obj
         (List.map (fun (k, v) -> (k, Hft_util.Json.String v)) (attrs t)));
      ("children", Hft_util.Json.List (List.map to_json (children t))) ]

let trace_to_json () = Hft_util.Json.List (List.map to_json (roots ()))
