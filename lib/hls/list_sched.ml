open Hft_cdfg

type resources = (Op.fu_class * int) list

let schedule ?latency ?priority ?max_steps g ~resources =
  let n = Graph.n_ops g in
  let latency =
    match latency with Some l -> l | None -> Array.make n 1
  in
  let max_steps =
    match max_steps with
    | Some m -> m
    | None -> (Array.fold_left ( + ) 0 latency + 4) * 2
  in
  let priority =
    match priority with
    | Some p -> p
    | None ->
      (* Least mobility first: priority = -(alap - asap). *)
      let asap = Sched_algos.asap ~latency g in
      let horizon = asap.Schedule.n_steps in
      let alap = Sched_algos.alap ~latency g ~n_steps:horizon in
      Array.map (fun m -> -m) (Sched_algos.mobility ~asap ~alap)
  in
  (* Check the resource table covers every class used. *)
  Array.iter
    (fun o ->
      match Op.fu_class (Graph.op g o).Graph.o_kind with
      | None -> ()
      | Some cl ->
        (match List.assoc_opt cl resources with
         | Some k when k >= 1 -> ()
         | Some _ | None ->
           invalid_arg
             (Printf.sprintf "List_sched: no %s units allocated"
                (Op.fu_class_to_string cl))))
    (Array.init n (fun i -> i));
  (* Highest priority first, then lowest op id. *)
  let by_priority a b =
    match Int.compare (-priority.(a)) (-priority.(b)) with
    | 0 -> Int.compare a b
    | c -> c
  in
  let dg = Graph.op_graph g in
  let start = Array.make n 0 in
  (* [waiting.(o)] counts the predecessors of [o] that have not yet
     finished.  An op that starts at step [c] finishes after
     [latency - 1] more steps and releases its successors at
     [release_at] the next one; candidates are chosen before anything
     starts in a step, so that is never earlier than [c + 1].  [ready]
     holds the released ops not yet started, in candidate order. *)
  let waiting = Array.init n (Hft_util.Digraph.in_degree dg) in
  let release_at = Hashtbl.create 16 in
  let ready =
    ref
      (List.init n Fun.id
      |> List.filter (fun o -> waiting.(o) = 0)
      |> List.sort by_priority)
  in
  let unscheduled = ref n in
  let step = ref 0 in
  let candidate_evals = ref 0 in
  (* busy.(class slot accounting): list of (class, finish_step) *)
  let busy = ref [] in
  while !unscheduled > 0 && !step <= max_steps do
    incr step;
    let c = !step in
    let released = ref [] in
    List.iter
      (fun p ->
        List.iter
          (fun o ->
            waiting.(o) <- waiting.(o) - 1;
            if waiting.(o) = 0 then released := o :: !released)
          (Hft_util.Digraph.succ dg p))
      (Option.value ~default:[] (Hashtbl.find_opt release_at c));
    Hashtbl.remove release_at c;
    busy := List.filter (fun (_, fin) -> fin >= c) !busy;
    let free cl =
      let total = match List.assoc_opt cl resources with Some k -> k | None -> 0 in
      List.fold_left (fun k (cl', _) -> if cl' = cl then k - 1 else k) total !busy
    in
    let candidates =
      List.merge by_priority !ready (List.sort by_priority !released)
    in
    candidate_evals := !candidate_evals + List.length candidates;
    let start_op o =
      start.(o) <- c;
      decr unscheduled;
      let r = c + max 1 latency.(o) in
      Hashtbl.replace release_at r
        (o :: Option.value ~default:[] (Hashtbl.find_opt release_at r))
    in
    let not_started = ref [] in
    List.iter
      (fun o ->
        match Op.fu_class (Graph.op g o).Graph.o_kind with
        | None ->
          (* moves: free *)
          start_op o
        | Some cl ->
          if free cl > 0 then begin
            start_op o;
            busy := (cl, c + latency.(o) - 1) :: !busy
          end
          else not_started := o :: !not_started)
      candidates;
    ready := List.rev !not_started
  done;
  if !unscheduled > 0 then invalid_arg "List_sched: step budget exhausted";
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.sched.runs";
    Hft_obs.Registry.incr "hft.sched.steps" ~by:!step;
    Hft_obs.Registry.incr "hft.sched.candidate_evals" ~by:!candidate_evals
  end;
  let n_steps =
    Array.fold_left max 1 (Array.mapi (fun o s -> s + latency.(o) - 1) start)
  in
  Schedule.make g ~n_steps ~latency start

let used_resources g sched = Schedule.fu_demand g sched
