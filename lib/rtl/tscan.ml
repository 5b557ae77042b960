type selection = { scan_regs : int list; tscan_fus : int list }

(* Loops as edge-labelled paths: consecutive register pairs with the
   set of units that could carry the edge. *)
let labelled_loops s =
  let d = s.Sgraph.datapath in
  let fus_between r1 r2 =
    List.filter
      (fun f ->
        List.mem r1 (Datapath.fu_input_regs d f)
        && List.mem r2 (Datapath.fu_output_regs d f))
      (List.init (Datapath.n_fus d) (fun f -> f))
  in
  List.map
    (fun loop ->
      let rec edges = function
        | [] -> []
        | [ last ] -> [ (last, List.hd loop) ]
        | a :: (b :: _ as tl) -> (a, b) :: edges tl
      in
      let es = edges loop in
      (loop, List.map (fun (a, b) -> ((a, b), fus_between a b)) es))
    (Sgraph.nontrivial_loops s)

let loop_covered sel (regs, edges) =
  List.exists (fun r -> List.mem r sel.scan_regs) regs
  || List.exists
       (fun (_, fus) -> List.exists (fun f -> List.mem f sel.tscan_fus) fus)
       edges

let covered s sel = List.for_all (loop_covered sel) (labelled_loops s)

let select s =
  let d = s.Sgraph.datapath in
  let loops = labelled_loops s in
  let rec go sel uncovered =
    if uncovered = [] then sel
    else begin
      let gain_reg r =
        List.length
          (List.filter (fun (regs, _) -> List.mem r regs) uncovered)
      in
      let gain_fu f =
        List.length
          (List.filter
             (fun (_, edges) ->
               List.exists (fun (_, fus) -> List.mem f fus) edges)
             uncovered)
      in
      let best_fu =
        List.fold_left
          (fun acc f ->
            match acc with
            | Some (_, g) when g >= gain_fu f -> acc
            | _ -> if gain_fu f > 0 then Some (f, gain_fu f) else acc)
          None
          (List.init (Datapath.n_fus d) (fun f -> f))
      in
      let best_reg =
        List.fold_left
          (fun acc r ->
            match acc with
            | Some (_, g) when g >= gain_reg r -> acc
            | _ -> if gain_reg r > 0 then Some (r, gain_reg r) else acc)
          None
          (List.init (Datapath.n_regs d) (fun r -> r))
      in
      let sel' =
        match (best_fu, best_reg) with
        | Some (f, gf), Some (_, gr) when gf >= gr ->
          { sel with tscan_fus = f :: sel.tscan_fus }
        | _, Some (r, _) -> { sel with scan_regs = r :: sel.scan_regs }
        | Some (f, _), None -> { sel with tscan_fus = f :: sel.tscan_fus }
        | None, None -> sel (* nothing can cover the rest *)
      in
      if sel' = sel then sel
      else go sel' (List.filter (fun l -> not (loop_covered sel' l)) uncovered)
    end
  in
  let sel = go { scan_regs = []; tscan_fus = [] } loops in
  { scan_regs = List.sort compare sel.scan_regs;
    tscan_fus = List.sort compare sel.tscan_fus }

let n_cells sel = List.length sel.scan_regs + List.length sel.tscan_fus
