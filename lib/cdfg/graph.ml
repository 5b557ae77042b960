type var_kind = V_input | V_output | V_intermediate | V_const of int
type var = { v_id : int; v_name : string; v_kind : var_kind }

type op = {
  o_id : int;
  o_kind : Op.kind;
  o_args : int array;
  o_result : int;
}

type t = {
  name : string;
  vars : var array;
  ops : op array;
  feedback : (int * int) list;
  test_controls : int list;
  test_observes : int list;
}

let n_vars g = Array.length g.vars
let n_ops g = Array.length g.ops

let var g i =
  if i < 0 || i >= n_vars g then invalid_arg "Graph.var";
  g.vars.(i)

let op g i =
  if i < 0 || i >= n_ops g then invalid_arg "Graph.op";
  g.ops.(i)

let producer g v =
  let found = ref None in
  Array.iter (fun o -> if o.o_result = v then found := Some o) g.ops;
  !found

let consumers g v =
  Array.to_list g.ops
  |> List.filter (fun o -> Array.exists (fun a -> a = v) o.o_args)

let inputs g =
  Array.to_list g.vars |> List.filter (fun v -> v.v_kind = V_input)

let outputs g =
  Array.to_list g.vars |> List.filter (fun v -> v.v_kind = V_output)

let is_output g v = (var g v).v_kind = V_output
let state_vars g = List.map snd g.feedback

let op_profile g =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun o ->
      match Op.fu_class o.o_kind with
      | None -> ()
      | Some c ->
        Hashtbl.replace tbl c (1 + (try Hashtbl.find tbl c with Not_found -> 0)))
    g.ops;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [] |> List.sort compare

(* var -> id of the op producing it, [-1] when none; the last producer
   wins, as in [producer]. *)
let producer_ids g =
  let ids = Array.make (n_vars g) (-1) in
  Array.iter (fun o -> ids.(o.o_result) <- o.o_id) g.ops;
  ids

let op_graph_of g ids =
  let dg = Hft_util.Digraph.create (n_ops g) in
  Array.iter
    (fun o ->
      Array.iter
        (fun a ->
          if ids.(a) >= 0 then Hft_util.Digraph.add_edge dg ids.(a) o.o_id)
        o.o_args)
    g.ops;
  dg

let op_graph g = op_graph_of g (producer_ids g)

let op_graph_with_feedback g =
  let ids = producer_ids g in
  let dg = op_graph_of g ids in
  List.iter
    (fun (src, dst) ->
      if ids.(src) >= 0 then
        List.iter
          (fun c -> Hft_util.Digraph.add_edge dg ids.(src) c.o_id)
          (consumers g dst))
    g.feedback;
  dg

let var_by_name g name =
  let found = ref None in
  Array.iter (fun v -> if v.v_name = name then found := Some v.v_id) g.vars;
  match !found with Some i -> i | None -> raise Not_found

let run ~width g ~inputs ?(state = []) ?(force = []) () =
  let values = Array.make (n_vars g) 0 in
  let have = Array.make (n_vars g) false in
  let forced v = List.assoc_opt v force in
  Array.iter
    (fun v ->
      match v.v_kind with
      | V_const c ->
        values.(v.v_id) <- c;
        have.(v.v_id) <- true
      | V_input | V_output | V_intermediate -> ())
    g.vars;
  List.iter
    (fun (name, x) ->
      let id = var_by_name g name in
      values.(id) <- x;
      have.(id) <- true)
    inputs;
  List.iter
    (fun (name, x) ->
      let id = var_by_name g name in
      values.(id) <- x;
      have.(id) <- true)
    state;
  (* State variables default to 0 when not supplied. *)
  List.iter
    (fun (_, dst) -> if not have.(dst) then have.(dst) <- true)
    g.feedback;
  (* Test-mode control points override everything. *)
  List.iter
    (fun (v, x) ->
      values.(v) <- x;
      have.(v) <- true)
    force;
  (match Hft_util.Digraph.topological_sort (op_graph g) with
   | None -> invalid_arg "Graph.run: cyclic op graph"
   | Some order ->
     List.iter
       (fun oid ->
         let o = g.ops.(oid) in
         Array.iter
           (fun a ->
             if not have.(a) then
               invalid_arg
                 (Printf.sprintf "Graph.run: variable %s has no value"
                    (var g a).v_name))
           o.o_args;
         let args = Array.to_list (Array.map (fun a -> values.(a)) o.o_args) in
         (match forced o.o_result with
          | Some x -> values.(o.o_result) <- x
          | None -> values.(o.o_result) <- Op.eval ~width o.o_kind args);
         have.(o.o_result) <- true)
       order);
  Array.to_list (Array.mapi (fun i v -> (i, v)) values)

let value_of g result name = List.assoc (var_by_name g name) result

let to_dot g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" g.name);
  Array.iter
    (fun v ->
      let shape =
        match v.v_kind with
        | V_input -> "invtriangle"
        | V_output -> "triangle"
        | V_const _ -> "diamond"
        | V_intermediate -> "plaintext"
      in
      Buffer.add_string buf
        (Printf.sprintf "  v%d [label=\"%s\" shape=%s];\n" v.v_id v.v_name shape))
    g.vars;
  Array.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "  o%d [label=\"%s\" shape=circle];\n" o.o_id
           (Op.to_string o.o_kind));
      Array.iter
        (fun a -> Buffer.add_string buf (Printf.sprintf "  v%d -> o%d;\n" a o.o_id))
        o.o_args;
      Buffer.add_string buf (Printf.sprintf "  o%d -> v%d;\n" o.o_id o.o_result))
    g.ops;
  List.iter
    (fun (src, dst) ->
      Buffer.add_string buf
        (Printf.sprintf "  v%d -> v%d [style=dashed,label=\"z\"];\n" src dst))
    g.feedback;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let make ~name ~vars ~ops ~feedback ~test_controls ~test_observes =
  let g = { name; vars; ops; feedback; test_controls; test_observes } in
  (* ids are positional *)
  Array.iteri
    (fun i v -> if v.v_id <> i then invalid_arg "Graph.make: var id mismatch")
    vars;
  Array.iteri
    (fun i o -> if o.o_id <> i then invalid_arg "Graph.make: op id mismatch")
    ops;
  (* arity *)
  Array.iter
    (fun o ->
      if Array.length o.o_args <> Op.arity o.o_kind then
        invalid_arg "Graph.make: arity mismatch";
      Array.iter
        (fun a ->
          if a < 0 || a >= Array.length vars then
            invalid_arg "Graph.make: dangling arg")
        o.o_args;
      if o.o_result < 0 || o.o_result >= Array.length vars then
        invalid_arg "Graph.make: dangling result")
    ops;
  (* single assignment; no producing inputs/constants *)
  let producers = Array.make (Array.length vars) 0 in
  Array.iter
    (fun o -> producers.(o.o_result) <- producers.(o.o_result) + 1)
    ops;
  Array.iteri
    (fun i n ->
      if n > 1 then
        invalid_arg
          (Printf.sprintf "Graph.make: variable %s produced twice"
             vars.(i).v_name);
      match vars.(i).v_kind with
      | (V_input | V_const _) when n > 0 ->
        invalid_arg "Graph.make: input/const has a producer"
      | (V_output | V_intermediate) when n = 0 ->
        (* outputs or intermediates may be driven by feedback dst role or
           be aliases of inputs only if they appear as feedback dst *)
        if not (List.exists (fun (_, dst) -> dst = i) feedback) then
          invalid_arg
            (Printf.sprintf "Graph.make: variable %s has no producer"
               vars.(i).v_name)
      | _ -> ())
    producers;
  (* feedback pairs reference valid vars; src must have a producer *)
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= Array.length vars || dst < 0 || dst >= Array.length vars
      then invalid_arg "Graph.make: dangling feedback";
      if producers.(src) = 0 && vars.(src).v_kind <> V_input then
        invalid_arg "Graph.make: feedback source never produced")
    feedback;
  (* intra-iteration acyclicity *)
  if not (Hft_util.Digraph.is_acyclic (op_graph g)) then
    invalid_arg "Graph.make: cyclic intra-iteration dependencies";
  g
