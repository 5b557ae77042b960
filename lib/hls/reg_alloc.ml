open Hft_cdfg
open Hft_util

type t = { reg_of_var : int array; n_regs : int }

let spread_to_members info candidates track_of =
  let nv = Array.length info.Lifetime.intervals in
  let reg_of_var = Array.make nv (-1) in
  List.iter
    (fun rep ->
      let track = track_of rep in
      List.iter
        (fun v -> reg_of_var.(v) <- track)
        (Lifetime.class_members info rep))
    candidates;
  reg_of_var

let left_edge g info =
  let candidates = Lifetime.register_candidates g info in
  let items =
    List.map (fun rep -> (rep, Lifetime.class_interval info rep)) candidates
  in
  let assign, n = Interval.left_edge items in
  (* Left-edge ignores the final-boundary write exclusions; patch any
     violations by spilling one side to a fresh register: in candidate
     order, each candidate spills every later one on its track that it
     conflicts with.  A spilled candidate is alone on its fresh track,
     so only candidates that share a left-edge track are compared, and
     [later.(rep)] lists those after [rep], in candidate order. *)
  let nv = Array.length info.Lifetime.intervals in
  let track = Array.make nv (-1) in
  List.iter (fun (rep, t) -> track.(rep) <- t) assign;
  let later = Array.make nv [] in
  let rest_of_track = Array.make n [] in
  List.iter
    (fun rep ->
      let t = track.(rep) in
      later.(rep) <- rest_of_track.(t);
      rest_of_track.(t) <- rep :: rest_of_track.(t))
    (List.rev candidates);
  let n_regs = ref n in
  List.iter
    (fun rep ->
      List.iter
        (fun rep' ->
          if track.(rep) = track.(rep') && Lifetime.conflict info rep rep'
          then begin
            track.(rep') <- !n_regs;
            incr n_regs
          end)
        later.(rep))
    candidates;
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.reg_alloc.runs";
    Hft_obs.Registry.incr "hft.reg_alloc.candidates"
      ~by:(List.length candidates);
    Hft_obs.Registry.incr "hft.reg_alloc.spills" ~by:(!n_regs - n);
    Hft_obs.Registry.incr "hft.reg_alloc.regs" ~by:!n_regs
  end;
  let reg_of_var = spread_to_members info candidates (Array.get track) in
  { reg_of_var; n_regs = !n_regs }

let color ?(extra_conflicts = []) ?order ?prefer g info =
  let candidates = Lifetime.register_candidates g info in
  let rep_of v = Union_find.find info.Lifetime.merged v in
  (* Extra conflicts between class representatives, both ways round,
     keyed [a * nv + b]. *)
  let nv = Array.length info.Lifetime.intervals in
  let extra = Hashtbl.create (2 * List.length extra_conflicts) in
  List.iter
    (fun (a, b) ->
      let a = rep_of a and b = rep_of b in
      Hashtbl.replace extra ((a * nv) + b) ();
      Hashtbl.replace extra ((b * nv) + a) ())
    extra_conflicts;
  let conflict_checks = ref 0 in
  let conflict a b =
    incr conflict_checks;
    a <> b && (Lifetime.conflict info a b || Hashtbl.mem extra ((a * nv) + b))
  in
  let dedup_keep_order l =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      l
  in
  let order =
    match order with
    | Some o ->
      let o = dedup_keep_order (List.map rep_of o) in
      (* Keep only candidates; append any the caller forgot. *)
      let o = List.filter (fun r -> List.mem r candidates) o in
      o @ List.filter (fun r -> not (List.mem r o)) candidates
    | None ->
      List.sort
        (fun a b ->
          compare
            ((Lifetime.class_interval info a).Interval.lo, a)
            ((Lifetime.class_interval info b).Interval.lo, b))
        candidates
  in
  let prefer =
    match prefer with
    | Some f -> f
    | None -> fun _rep ~feasible ->
      (match feasible with [] -> None | r :: _ -> Some r)
  in
  let color_of = Hashtbl.create 16 in
  let n_regs = ref 0 in
  List.iter
    (fun rep ->
      let used_by_conflicting =
        List.filter_map
          (fun rep' ->
            match Hashtbl.find_opt color_of rep' with
            | Some c when conflict rep rep' -> Some c
            | _ -> None)
          order
        |> List.sort_uniq compare
      in
      let feasible =
        List.init !n_regs (fun c -> c)
        |> List.filter (fun c -> not (List.mem c used_by_conflicting))
      in
      match prefer rep ~feasible with
      | Some c when List.mem c feasible -> Hashtbl.replace color_of rep c
      | Some _ ->
        invalid_arg "Reg_alloc.color: prefer returned an infeasible register"
      | None ->
        Hashtbl.replace color_of rep !n_regs;
        incr n_regs)
    order;
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.reg_alloc.runs";
    Hft_obs.Registry.incr "hft.reg_alloc.candidates"
      ~by:(List.length candidates);
    Hft_obs.Registry.incr "hft.reg_alloc.conflict_checks"
      ~by:!conflict_checks;
    Hft_obs.Registry.incr "hft.reg_alloc.regs" ~by:!n_regs
  end;
  let reg_of_var =
    spread_to_members info candidates (Hashtbl.find color_of)
  in
  { reg_of_var; n_regs = !n_regs }

let vars_of_reg t r =
  let acc = ref [] in
  Array.iteri (fun v reg -> if reg = r then acc := v :: !acc) t.reg_of_var;
  List.rev !acc

let validate ?(extra_conflicts = []) g info t =
  let nv = Array.length t.reg_of_var in
  (* Merge classes stay together. *)
  for v = 0 to nv - 1 do
    let rep = Union_find.find info.Lifetime.merged v in
    if t.reg_of_var.(v) >= 0 && t.reg_of_var.(rep) >= 0
       && t.reg_of_var.(v) <> t.reg_of_var.(rep)
    then invalid_arg "Reg_alloc.validate: merge class split"
  done;
  (* Registerable classes are mapped. *)
  List.iter
    (fun rep ->
      if t.reg_of_var.(rep) < 0 then
        invalid_arg "Reg_alloc.validate: unmapped register candidate")
    (Lifetime.register_candidates g info);
  (* No conflicting pair shares. *)
  for u = 0 to nv - 1 do
    for v = u + 1 to nv - 1 do
      if t.reg_of_var.(u) >= 0 && t.reg_of_var.(u) = t.reg_of_var.(v)
         && Lifetime.conflict info u v
      then
        invalid_arg
          (Printf.sprintf "Reg_alloc.validate: vars %d,%d conflict in reg %d" u
             v t.reg_of_var.(u))
    done
  done;
  List.iter
    (fun (a, b) ->
      if t.reg_of_var.(a) >= 0 && t.reg_of_var.(a) = t.reg_of_var.(b)
         && not (Union_find.same info.Lifetime.merged a b)
      then invalid_arg "Reg_alloc.validate: extra conflict violated")
    extra_conflicts
