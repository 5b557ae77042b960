open Hft_cdfg
open Hft_util

type result = {
  sched : Schedule.t;
  binding : Hft_hls.Fu_bind.t;
  est_assignment_loops : int;
}

(* Per-run search state: the op graph, built once, and stamp arrays
   that are never cleared.  [member.(o) = mark] puts [o] in the member
   set under examination, [seen.(o) = bfs] means the current search has
   queued [o], and [hit.(o) = round] means the current count reached
   member [o] along an escaping path. *)
type workspace = {
  dg : Digraph.t;
  member : int array;
  seen : int array;
  hit : int array;
  queue : int array;
  mutable mark : int;
  mutable bfs : int;
  mutable round : int;
}

let workspace g =
  let dg = Graph.op_graph g in
  let n = Digraph.order dg in
  let stamps () = Array.make n 0 in
  { dg; member = stamps (); seen = stamps (); hit = stamps ();
    queue = stamps (); mark = 0; bfs = 0; round = 0 }

let mark_members ws ops =
  ws.mark <- ws.mark + 1;
  List.iter (fun o -> ws.member.(o) <- ws.mark) ops

(* Only dependency paths that leave the member set create assignment
   loops: a chain kept entirely on one unit merely recirculates through
   the unit's own output register (a tolerated self-loop, paper
   Figure 1(c)).  So search from [o] along [next] edges through ops off
   the set, and hit every member adjacent to an op the search reaches;
   a member adjacent to [o] itself is not hit. *)
let search ws next o =
  ws.bfs <- ws.bfs + 1;
  let tail = ref 0 in
  let step w =
    if ws.member.(w) = ws.mark then ws.hit.(w) <- ws.round
    else if ws.seen.(w) <> ws.bfs then begin
      ws.seen.(w) <- ws.bfs;
      ws.queue.(!tail) <- w;
      incr tail
    end
  in
  List.iter
    (fun w -> if ws.member.(w) <> ws.mark then step w)
    (next ws.dg o);
  let head = ref 0 in
  while !head < !tail do
    let w = ws.queue.(!head) in
    incr head;
    List.iter step (next ws.dg w)
  done

(* Members of [ops] other than [o] hit in the current round. *)
let hits ws ops o =
  List.fold_left
    (fun n v -> if v <> o && ws.hit.(v) = ws.round then n + 1 else n)
    0 ops

(* Ordered pairs (u, v) of [ops] with an escaping path u -> v. *)
let instance_loops ws ops =
  mark_members ws ops;
  List.fold_left
    (fun acc u ->
      ws.round <- ws.round + 1;
      search ws Digraph.succ u;
      acc + hits ws ops u)
    0 ops

let binding_loops ws (binding : Hft_hls.Fu_bind.t) =
  Array.fold_left
    (fun acc (_, ops) -> acc + instance_loops ws ops)
    0 binding.Hft_hls.Fu_bind.instances

let assignment_loops g binding = binding_loops (workspace g) binding

(* Members that [o] would close an assignment loop with, either way. *)
let loop_creating_pairs ws members o =
  mark_members ws (o :: members);
  ws.round <- ws.round + 1;
  search ws Digraph.succ o;
  search ws Digraph.pred o;
  hits ws members o

let bind_loop_aware ws ?(loop_cost = 100.0) ~resources g sched =
  let choose (partial : Hft_hls.Fu_bind.t) ~op ~candidates ~can_open =
    let cost inst =
      let _, members = partial.Hft_hls.Fu_bind.instances.(inst) in
      loop_cost *. float_of_int (loop_creating_pairs ws members op)
    in
    let best =
      List.fold_left
        (fun acc inst ->
          let c = cost inst in
          match acc with
          | Some (_, best) when c >= best -> acc
          | None | Some _ -> Some (inst, c))
        None candidates
    in
    match best with
    | Some (inst, c) ->
      (* Opening a fresh unit costs one unit of "area pressure"; avoid a
         loop whenever the cap allows. *)
      if c > 0.0 && can_open then `Open else `Use inst
    | None -> `Open
  in
  Hft_hls.Fu_bind.bind ~resources ~choose g sched

(* Move one op to another instance of its class (steps permitting). *)
let rebind g sched (binding : Hft_hls.Fu_bind.t) o inst =
  let instances =
    Array.mapi
      (fun i (cl, ops) ->
        let ops = List.filter (fun o' -> o' <> o) ops in
        if i = inst then (cl, List.sort compare (o :: ops)) else (cl, ops))
      binding.Hft_hls.Fu_bind.instances
  in
  let fu_of_op = Array.copy binding.Hft_hls.Fu_bind.fu_of_op in
  fu_of_op.(o) <- inst;
  let b = { Hft_hls.Fu_bind.fu_of_op; instances } in
  match Hft_hls.Fu_bind.validate g sched b with
  | () -> Some b
  | exception Invalid_argument _ -> None

(* Local search: move single ops between instances while it reduces the
   assignment-loop count.  A move changes only its two instances, so
   only their counts are redone. *)
let improve ws g sched (binding : Hft_hls.Fu_bind.t) =
  let current = ref binding in
  let counts =
    Array.map (fun (_, ops) -> instance_loops ws ops)
      binding.Hft_hls.Fu_bind.instances
  in
  let score = ref (Array.fold_left ( + ) 0 counts) in
  let progress = ref true in
  while !progress && !score > 0 do
    progress := false;
    Array.iteri
      (fun o inst0 ->
        if inst0 >= 0 && not !progress then
          Array.iteri
            (fun inst (cl, _) ->
              if (not !progress) && inst <> inst0
                 && Some cl
                    = Hft_cdfg.Op.fu_class (Graph.op g o).Graph.o_kind
              then
                match rebind g sched !current o inst with
                | Some b ->
                  let recount i =
                    instance_loops ws (snd b.Hft_hls.Fu_bind.instances.(i))
                  in
                  let c0 = recount inst0 and c = recount inst in
                  let s = !score - counts.(inst0) - counts.(inst) + c0 + c in
                  if s < !score then begin
                    current := b;
                    score := s;
                    counts.(inst0) <- c0;
                    counts.(inst) <- c;
                    progress := true
                  end
                | None -> ())
            !current.Hft_hls.Fu_bind.instances)
      !current.Hft_hls.Fu_bind.fu_of_op
  done;
  !current

let run ?loop_cost ~resources g sched_opt =
  let sched =
    match sched_opt with
    | Some s -> s
    | None -> Hft_hls.List_sched.schedule g ~resources
  in
  (* Two seeds — the loop-aware greedy and the conventional left-edge —
     each polished by local search; keep the better. *)
  let ws = workspace g in
  let seeds =
    [ bind_loop_aware ws ?loop_cost ~resources g sched;
      Hft_hls.Fu_bind.left_edge ~resources g sched ]
  in
  let binding =
    List.map (fun b -> improve ws g sched b) seeds
    |> List.map (fun b -> (binding_loops ws b, b))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.hd |> snd
  in
  { sched; binding; est_assignment_loops = binding_loops ws binding }

let conventional ~resources g =
  let sched = Hft_hls.List_sched.schedule g ~resources in
  let binding = Hft_hls.Fu_bind.left_edge ~resources g sched in
  { sched; binding; est_assignment_loops = assignment_loops g binding }
