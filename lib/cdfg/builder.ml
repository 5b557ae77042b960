type pending_var = {
  mutable kind : Graph.var_kind;
  name : string;
}

type t = {
  graph_name : string;
  mutable vars : pending_var list; (* reversed *)
  mutable n_vars : int;
  mutable ops : (Op.kind * int array * int) list; (* reversed *)
  mutable n_ops : int;
  mutable fb : (int * int) list;
}

let create graph_name =
  { graph_name; vars = []; n_vars = 0; ops = []; n_ops = 0; fb = [] }

let add_var b kind name =
  let id = b.n_vars in
  b.vars <- { kind; name } :: b.vars;
  b.n_vars <- id + 1;
  id

let input b name = add_var b Graph.V_input name
let state b name = add_var b Graph.V_intermediate name
let const b c = add_var b (Graph.V_const c) (Printf.sprintf "c%d" c)

let fresh_name b prefix = Printf.sprintf "%s%d" prefix b.n_ops

let add_op b kind args name =
  let result = add_var b Graph.V_intermediate name in
  b.ops <- (kind, args, result) :: b.ops;
  b.n_ops <- b.n_ops + 1;
  result

let binop b ?name kind a c =
  let name = match name with Some n -> n | None -> fresh_name b "t" in
  add_op b kind [| a; c |] name

let move b ?name a =
  let name = match name with Some n -> n | None -> fresh_name b "m" in
  add_op b Op.Move [| a |] name

let mark_output b v =
  let pv = List.nth b.vars (b.n_vars - 1 - v) in
  (match pv.kind with
   | Graph.V_input ->
     Hft_robust.Validation.fail ~site:"builder.mark_output"
       ~hint:"route the input through an op (e.g. a move) first"
       (Printf.sprintf "variable %d (%s) is an input" v pv.name)
   | Graph.V_const _ ->
     Hft_robust.Validation.fail ~site:"builder.mark_output"
       ~hint:"constants cannot be outputs; bind through an op"
       (Printf.sprintf "variable %d (%s) is a constant" v pv.name)
   | Graph.V_intermediate | Graph.V_output -> pv.kind <- Graph.V_output)

let feedback b ~src ~dst = b.fb <- (src, dst) :: b.fb

let finish b =
  let vars =
    Array.of_list (List.rev b.vars)
    |> Array.mapi (fun i pv -> { Graph.v_id = i; v_name = pv.name; v_kind = pv.kind })
  in
  let ops =
    Array.of_list (List.rev b.ops)
    |> Array.mapi (fun i (kind, args, result) ->
           { Graph.o_id = i; o_kind = kind; o_args = args; o_result = result })
  in
  Graph.make ~name:b.graph_name ~vars ~ops ~feedback:(List.rev b.fb)
    ~test_controls:[] ~test_observes:[]
