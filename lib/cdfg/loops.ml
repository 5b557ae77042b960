type loop = { ops : int list; vars : int list }

(* The variables carried by cycle edge o1 -> o2 are the result of o1
   when o2 consumes it directly, plus, when the edge is a feedback edge,
   both the feedback source and destination variables (they share a
   register, so scanning either breaks the loop). *)
let edge_vars g o1 o2 =
  let r = (Graph.op g o1).Graph.o_result in
  let direct =
    if Array.exists (fun a -> a = r) (Graph.op g o2).Graph.o_args then [ r ]
    else []
  in
  let via_feedback =
    List.concat_map
      (fun (src, dst) ->
        let produced_by_o1 =
          match Graph.producer g src with
          | Some p -> p.Graph.o_id = o1
          | None -> false
        in
        let consumed_by_o2 =
          Array.exists (fun a -> a = dst) (Graph.op g o2).Graph.o_args
        in
        if produced_by_o1 && consumed_by_o2 then [ src; dst ] else [])
      g.Graph.feedback
  in
  List.sort_uniq compare (direct @ via_feedback)

let enumerate ?(max_len = 24) ?(max_count = 4096) g =
  let dg = Graph.op_graph_with_feedback g in
  let cycles = Hft_util.Digraph.cycles dg ~max_len ~max_count in
  List.map
    (fun ops ->
      let rec pairs = function
        | [] -> []
        | [ last ] -> [ (last, List.hd ops) ]
        | a :: (b :: _ as tl) -> (a, b) :: pairs tl
      in
      let vars =
        List.concat_map (fun (a, b) -> edge_vars g a b) (pairs ops)
        |> List.sort_uniq compare
      in
      { ops; vars })
    cycles

let breaks loop scan_vars = List.exists (fun v -> List.mem v loop.vars) scan_vars
let unbroken loops scan_vars =
  List.filter (fun l -> not (breaks l scan_vars)) loops
