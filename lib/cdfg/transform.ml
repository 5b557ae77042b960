let rebuild g ~extra_vars ~extra_ops ~rewrite_arg =
  (* Rebuild the graph with [extra_vars]/[extra_ops] appended and every
     (op, arg-position) rewritten through [rewrite_arg]. *)
  let nv = Graph.n_vars g in
  let vars =
    Array.append
      (Array.init nv (Graph.var g))
      (Array.of_list
         (List.mapi
            (fun i (name, kind) -> { Graph.v_id = nv + i; v_name = name; v_kind = kind })
            extra_vars))
  in
  let no = Graph.n_ops g in
  let ops =
    Array.append
      (Array.init no (fun i ->
           let o = Graph.op g i in
           { o with Graph.o_args = Array.mapi (fun pos a -> rewrite_arg i pos a) o.Graph.o_args }))
      (Array.of_list
         (List.mapi
            (fun i (kind, args, result) ->
              { Graph.o_id = no + i; o_kind = kind; o_args = args; o_result = result })
            extra_ops))
  in
  Graph.make ~name:g.Graph.name ~vars ~ops ~feedback:g.Graph.feedback
    ~test_controls:g.Graph.test_controls ~test_observes:g.Graph.test_observes

let insert_deflection g ~var ~consumer =
  let o = Graph.op g consumer in
  if not (Array.exists (fun a -> a = var) o.Graph.o_args) then
    invalid_arg "Transform.insert_deflection: consumer does not read var";
  let nv = Graph.n_vars g in
  let zero = nv and fresh = nv + 1 in
  let vname = (Graph.var g var).Graph.v_name in
  let extra_vars =
    [ (Printf.sprintf "c0_defl_%s" vname, Graph.V_const 0);
      (Printf.sprintf "%s_defl%d" vname consumer, Graph.V_intermediate) ]
  in
  let extra_ops = [ (Op.Add, [| var; zero |], fresh) ] in
  rebuild g ~extra_vars ~extra_ops ~rewrite_arg:(fun oid _pos a ->
      if oid = consumer && a = var then fresh else a)

let add_test_points g ~controls ~observes =
  Graph.make ~name:g.Graph.name
    ~vars:(Array.init (Graph.n_vars g) (Graph.var g))
    ~ops:(Array.init (Graph.n_ops g) (Graph.op g))
    ~feedback:g.Graph.feedback
    ~test_controls:(List.sort_uniq compare (controls @ g.Graph.test_controls))
    ~test_observes:(List.sort_uniq compare (observes @ g.Graph.test_observes))

let equivalent ~width ~trials rng a b =
  let names vs = List.map (fun v -> v.Graph.v_name) vs |> List.sort compare in
  let state_names g =
    List.map (fun v -> (Graph.var g v).Graph.v_name) (Graph.state_vars g)
    |> List.sort_uniq compare
  in
  names (Graph.inputs a) = names (Graph.inputs b)
  && names (Graph.outputs a) = names (Graph.outputs b)
  && state_names a = state_names b
  &&
  let in_names = names (Graph.inputs a) in
  let st_names = state_names a in
  let out_names = names (Graph.outputs a) in
  let fb_src_names g =
    List.map (fun (s, _) -> (Graph.var g s).Graph.v_name) g.Graph.feedback
    |> List.sort_uniq compare
  in
  let watch = List.sort_uniq compare (out_names @ fb_src_names a) in
  fb_src_names a = fb_src_names b
  && List.for_all
       (fun _ ->
         let ins = List.map (fun n -> (n, Hft_util.Rng.word rng)) in_names in
         let st = List.map (fun n -> (n, Hft_util.Rng.word rng)) st_names in
         let ra = Graph.run ~width a ~inputs:ins ~state:st () in
         let rb = Graph.run ~width b ~inputs:ins ~state:st () in
         List.for_all
           (fun n -> Graph.value_of a ra n = Graph.value_of b rb n)
           watch)
       (List.init trials (fun i -> i))
