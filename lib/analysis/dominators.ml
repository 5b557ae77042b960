open Hft_gate

(* Post-dominators of the fault-propagation graph.

   The graph G has a vertex per netlist node plus a virtual sink: an
   edge v -> u for every combinational consumer u of v (Dff consumers
   are excluded — a difference entering a flip-flop is not observed
   within the frame), and an edge o -> sink for every observe node o.
   A fault effect at v can only be observed by travelling a G-path from
   v to the sink, so every post-dominator of v lies on every such path.

   Post-dominators of G are dominators of the reversed graph rooted at
   the sink, computed with the Cooper–Harvey–Kennedy iteration: reverse
   postorder numbering from the sink over reversed edges, then the
   two-finger intersect climb until the idom table is stable. *)

type t = {
  d_n : int;  (* netlist nodes; the sink is vertex d_n *)
  d_idom : int array;  (* immediate post-dominator, -1 = unreachable *)
  d_rpo : int array;  (* reverse-postorder number, -1 = unreachable *)
}

let compute nl ~observe =
  let n = Netlist.n_nodes nl in
  let sink = n in
  let observed = Array.make n false in
  List.iter (fun o -> if o >= 0 && o < n then observed.(o) <- true) observe;
  let fanouts = Netlist.fanouts nl in
  (* Successors in G, i.e. predecessors in the reversed graph. *)
  let succs v =
    if v = sink then []
    else
      let comb =
        List.filter (fun u -> Netlist.kind nl u <> Netlist.Dff)
          (Array.to_list fanouts.(v))
      in
      if observed.(v) then sink :: comb else comb
  in
  (* Predecessors in G = successors in the reversed graph; the DFS from
     the sink walks these, so only nodes that can reach an observe node
     get an rpo number. *)
  let preds v =
    if v = sink then List.filter (fun o -> o >= 0 && o < n) observe
    else
      match Netlist.kind nl v with
      | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 -> []
      | _ -> Array.to_list (Netlist.fanin nl v)
  in
  (* Iterative postorder DFS over the reversed graph from the sink. *)
  let rpo = Array.make (n + 1) (-1) in
  let post = Array.make (n + 1) 0 in
  let n_post = ref 0 in
  let state = Array.make (n + 1) 0 in (* 0 new, 1 open, 2 done *)
  let stack = ref [ (sink, preds sink) ] in
  state.(sink) <- 1;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (v, todo) :: rest ->
      (match todo with
       | [] ->
         state.(v) <- 2;
         post.(!n_post) <- v;
         incr n_post;
         stack := rest
       | w :: todo' ->
         stack := (v, todo') :: rest;
         if state.(w) = 0 then begin
           state.(w) <- 1;
           stack := (w, preds w) :: !stack
         end)
  done;
  (* Reverse postorder: the sink gets 0, everything else follows. *)
  let order = Array.make !n_post 0 in
  for i = 0 to !n_post - 1 do
    let v = post.(!n_post - 1 - i) in
    rpo.(v) <- i;
    order.(i) <- v
  done;
  let idom = Array.make (n + 1) (-1) in
  idom.(sink) <- sink;
  let rec intersect a b =
    if a = b then a
    else if rpo.(a) > rpo.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to !n_post - 1 do
      let v = order.(i) in
      (* Predecessors in the reversed graph = successors in G. *)
      let new_idom =
        List.fold_left
          (fun acc u ->
            if rpo.(u) < 0 || idom.(u) < 0 then acc
            else match acc with
              | None -> Some u
              | Some a -> Some (intersect a u))
          None (succs v)
      in
      match new_idom with
      | Some d when idom.(v) <> d ->
        idom.(v) <- d;
        changed := true
      | _ -> ()
    done
  done;
  { d_n = n; d_idom = idom; d_rpo = rpo }

let reaches t v = v >= 0 && v < t.d_n && t.d_rpo.(v) >= 0

let chain t v =
  if not (reaches t v) then []
  else begin
    let acc = ref [] in
    let cur = ref t.d_idom.(v) in
    (* The walk is bounded by the tree height; the sink terminates it. *)
    while !cur >= 0 && !cur < t.d_n do
      acc := !cur :: !acc;
      cur := t.d_idom.(!cur)
    done;
    List.rev !acc
  end
