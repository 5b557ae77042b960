open Hft_util

type info = {
  intervals : Interval.t array;
  merged : Union_find.t;
  wrap_moves : (int * int) list;
  held_final : bool array;
  n_steps : int;
  members : int list array;
}

let compute g sched =
  let nv = Graph.n_vars g in
  let birth = Array.make nv max_int in
  let death = Array.make nv min_int in
  let touch v lo hi =
    if lo < birth.(v) then birth.(v) <- lo;
    if hi > death.(v) then death.(v) <- hi
  in
  let state_set = Graph.state_vars g in
  Array.iter
    (fun { Graph.v_id = v; v_kind; _ } ->
      match v_kind with
      | Graph.V_const _ -> ()
      | Graph.V_input -> touch v 0 0
      | Graph.V_output | Graph.V_intermediate ->
        if List.mem v state_set then touch v 0 0)
    (Array.init nv (Graph.var g));
  (* First pass: births from producers (op ids are not necessarily in
     dependency order after transformations). *)
  Array.iter
    (fun { Graph.o_id = o; o_result; _ } ->
      let fin = Schedule.finish_step sched o in
      touch o_result fin fin)
    (Array.init (Graph.n_ops g) (Graph.op g));
  (* Second pass: deaths from consumers. *)
  Array.iter
    (fun { Graph.o_id = o; o_args; _ } ->
      Array.iter
        (fun a ->
          match (Graph.var g a).Graph.v_kind with
          | Graph.V_const _ -> ()
          | Graph.V_input | Graph.V_output | Graph.V_intermediate ->
            (* Operands must stay stable until the consumer finishes
               (multi-cycle units are not pipelined). *)
            touch a birth.(a) (Schedule.finish_step sched o))
        o_args)
    (Array.init (Graph.n_ops g) (Graph.op g));
  (* Outputs and feedback sources persist to the end of the iteration. *)
  Array.iter
    (fun { Graph.v_id = v; v_kind; _ } ->
      if v_kind = Graph.V_output && death.(v) > min_int then
        death.(v) <- sched.Schedule.n_steps)
    (Array.init nv (Graph.var g));
  List.iter
    (fun (src, _) ->
      if death.(src) > min_int then death.(src) <- sched.Schedule.n_steps)
    g.Graph.feedback;
  let intervals =
    Array.init nv (fun v ->
        if birth.(v) = max_int then Interval.make 0 0
        else Interval.make birth.(v) (max birth.(v) death.(v)))
  in
  (* A feedback pair can share one register only when the source is
     produced at or after the destination's last use; otherwise the
     write would clobber live state and the data path must insert an
     end-of-iteration move instead. *)
  let merged = Union_find.create nv in
  let wrap_moves = ref [] in
  List.iter
    (fun (src, dst) ->
      if not (Interval.overlaps intervals.(src) intervals.(dst)) then
        Union_find.union merged src dst
      else wrap_moves := (src, dst) :: !wrap_moves)
    g.Graph.feedback;
  (* Values that must survive the final step boundary: primary outputs
     (read from their register after the iteration) and merged feedback
     sources / wrap destinations (they carry state into the next
     iteration).  Unmerged feedback sources are consumed {e at} the
     final edge by the wrap move, so they may be overwritten by it. *)
  let held_final = Array.make nv false in
  Array.iter
    (fun { Graph.v_id = v; v_kind; _ } ->
      if v_kind = Graph.V_output then held_final.(v) <- true)
    (Array.init nv (Graph.var g));
  List.iter
    (fun (src, dst) ->
      if Union_find.same merged src dst then held_final.(src) <- true
      else held_final.(dst) <- true)
    g.Graph.feedback;
  (* The classes are final now: tabulate each one's members once, in
     ascending order, shared by every member. *)
  let by_rep = Array.make nv [] in
  for v = nv - 1 downto 0 do
    let rep = Union_find.find merged v in
    by_rep.(rep) <- v :: by_rep.(rep)
  done;
  let members = Array.init nv (fun v -> by_rep.(Union_find.find merged v)) in
  { intervals; merged; wrap_moves = List.rev !wrap_moves; held_final;
    n_steps = sched.Schedule.n_steps; members }

let class_members info v = info.members.(v)

let class_interval info v =
  List.fold_left
    (fun acc u -> Interval.hull acc info.intervals.(u))
    (Interval.make 0 0) (class_members info v)

let wrap_written_classes info =
  List.map (fun (_, dst) -> Union_find.find info.merged dst) info.wrap_moves
  |> List.sort_uniq compare

(* A class is "written at the final boundary" when it receives a wrap
   move or contains a variable born at n_steps. *)
let final_write info v =
  let members = class_members info v in
  List.exists
    (fun u -> info.intervals.(u).Interval.lo = info.n_steps)
    members
  || List.exists
       (fun (_, dst) -> Union_find.same info.merged dst v)
       info.wrap_moves

let held_final_class info v =
  List.exists (fun u -> info.held_final.(u)) (class_members info v)

let conflict info u v =
  if Union_find.same info.merged u v then false
  else
    let interval_clash =
      List.exists
        (fun a ->
          List.exists
            (fun b -> Interval.overlaps info.intervals.(a) info.intervals.(b))
            (class_members info v))
        (class_members info u)
    in
    interval_clash
    || (final_write info u && final_write info v)
    || (final_write info u && held_final_class info v)
    || (held_final_class info u && final_write info v)

let register_candidates g info =
  let nv = Graph.n_vars g in
  let fb_srcs = List.map fst g.Graph.feedback in
  let fb_dsts = List.map snd g.Graph.feedback in
  let needs_storage v =
    (* Even with an empty conflict interval, an output, feedback source
       or state variable must be latched somewhere. *)
    (Graph.var g v).Graph.v_kind = Graph.V_output
    || List.mem v fb_srcs || List.mem v fb_dsts
  in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  for v = 0 to nv - 1 do
    match (Graph.var g v).Graph.v_kind with
    | Graph.V_const _ -> ()
    | Graph.V_input | Graph.V_output | Graph.V_intermediate ->
      let rep = Hft_util.Union_find.find info.merged v in
      if not (Hashtbl.mem seen rep) then begin
        Hashtbl.add seen rep ();
        if (not (Interval.is_empty (class_interval info rep)))
           || List.exists needs_storage (class_members info rep)
        then acc := rep :: !acc
      end
  done;
  List.rev !acc
