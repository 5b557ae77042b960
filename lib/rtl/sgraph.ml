open Hft_util

type t = { graph : Digraph.t; datapath : Datapath.t }

let of_datapath d =
  let graph =
    Digraph.of_edges (Datapath.n_regs d) @@ fun add ->
    (* Through a functional unit: any register on some input port mux
       can reach any register the unit's output can be latched into. *)
    Array.iter
      (fun f ->
        let ins = Datapath.fu_input_regs d f.Datapath.f_id in
        let outs = Datapath.fu_output_regs d f.Datapath.f_id in
        List.iter (fun i -> List.iter (fun o -> add i o) outs) ins)
      d.Datapath.fus;
    (* Direct register-to-register moves. *)
    Array.iter
      (fun r ->
        List.iter
          (function
            | Datapath.Sreg src -> add src r.Datapath.r_id
            | Datapath.Sport _ | Datapath.Sconst _ -> ())
          (Datapath.reg_sources d r.Datapath.r_id))
      d.Datapath.regs
  in
  { graph; datapath = d }

let default_max_len = 16
let default_max_count = 4096

let loops ?(max_len = default_max_len) ?(max_count = default_max_count) s =
  Digraph.cycles s.graph ~max_len ~max_count

let nontrivial_loops ?max_len ?max_count s =
  List.filter (fun l -> List.length l > 1) (loops ?max_len ?max_count s)

let n_nontrivial_loops s =
  Digraph.count_cycles s.graph ~min_len:2 ~max_len:default_max_len
    ~max_count:default_max_count

let self_loop_regs s = Digraph.self_loops s.graph

let is_loop_free ?(ignore_self_loops = true) s ~scanned =
  Mfvs.is_feedback_set ~ignore_self_loops s.graph scanned

let scan_selection ?(ignore_self_loops = true) s =
  Mfvs.greedy ~ignore_self_loops s.graph

(* Depth analysis: controllable sources are input registers and scanned
   registers; observable sinks are output registers and scanned
   registers.  Distances are counted in register-to-register hops with
   scanned registers acting as cut points (paths do not pass through
   them). *)
let big = max_int / 2

let multi_source_dist g ~through_ok sources =
  let n = Digraph.order g in
  let dist = Array.make n big in
  let q = Queue.create () in
  List.iter
    (fun v ->
      if dist.(v) = big then begin
        dist.(v) <- 0;
        Queue.add v q
      end)
    sources;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    if dist.(v) = 0 || through_ok v then
      List.iter
        (fun w ->
          if dist.(w) = big then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
        (Digraph.succ g v)
  done;
  dist

let depth_profile s ~scanned =
  let d = s.datapath in
  let controllable =
    List.sort_uniq compare (Datapath.input_registers d @ scanned)
  in
  let observable =
    List.sort_uniq compare (Datapath.output_registers d @ scanned)
  in
  let through_ok v = not (List.mem v scanned) in
  let cdist = multi_source_dist s.graph ~through_ok controllable in
  let odist =
    multi_source_dist (Digraph.transpose s.graph) ~through_ok observable
  in
  List.init (Datapath.n_regs d) (fun r -> (r, cdist.(r), odist.(r)))

let sequential_depth s ~scanned =
  let d = s.datapath in
  let profile = depth_profile s ~scanned in
  let outs = Datapath.output_registers d in
  let depths =
    List.filter_map
      (fun (r, c, _) -> if List.mem r outs then Some c else None)
      profile
  in
  match depths with
  | [] -> Some 0
  | _ ->
    let m = List.fold_left max 0 depths in
    if m >= big then None else Some m
