open Hft_gate

(* Static binary implication graph over netlist literals.

   A literal is [2*node + value].  Edges come from two sources:

   - direct implications read off gate semantics, recorded together
     with their contrapositives (e.g. for an And input [a]:
     [(a,0) -> (g,0)] and [(g,1) -> (a,1)]);
   - learned implications from per-literal ternary forward simulation:
     assert one literal on top of the all-X baseline, propagate it, and
     every node that settles to a concrete value is an implied literal.
     Ternary evaluation is monotone, so any total source assignment
     refining the partial one reproduces those values — the implication
     holds universally.  The contrapositive of each learned edge is
     stored too.

   The simulation is event-driven over [Sim]'s topological queue: a
   node pushes its non-DFF fanouts only when its value leaves the
   baseline (every other node of the literal's fanout cone would
   re-evaluate to its baseline value), and changed nodes pop in
   topological order.  So the learned edges, and the point where the
   per-literal and total caps stop learning, are those of a full pass
   over the literal's levelized fanout cone, without building the cone.

   The closure is a plain BFS with stamp-array scratch (no per-call
   allocation beyond the result list).  Baseline-concrete nodes
   (constants and their cones) act as unit facts: a closure literal
   that contradicts the baseline is a contradiction. *)

type closure_result = Consistent of (int * int) list | Contradiction

type t = {
  i_n : int;
  i_succs : int list array;  (* per literal, implied literals *)
  i_base : int array;  (* all-X baseline values, 0/1/2 *)
  i_edges : int;
  (* closure scratch *)
  i_stamp : int array;
  i_sval : int array;
  mutable i_clock : int;
}

let x = 2

(* Learned-edge budgets: per source literal and total, so dense
   netlists cannot blow the graph up quadratically. *)
let per_lit_cap = 32
let total_cap = 200_000
let learn_max_nodes = 20_000

let compute nl =
  let n = Netlist.n_nodes nl in
  let succs = Array.make (2 * n) [] in
  let edges = ref 0 in
  let add_edge l1 l2 =
    succs.(l1) <- l2 :: succs.(l1);
    incr edges
  in
  (* Forward rule plus contrapositive in one shot. *)
  let pair (a, va) (b, vb) =
    add_edge ((2 * a) + va) ((2 * b) + vb);
    add_edge ((2 * b) + (1 - vb)) ((2 * a) + (1 - va))
  in
  for g = 0 to n - 1 do
    let fi = Netlist.fanin nl g in
    match Netlist.kind nl g with
    | Netlist.And -> Array.iter (fun a -> pair (a, 0) (g, 0)) fi
    | Netlist.Or -> Array.iter (fun a -> pair (a, 1) (g, 1)) fi
    | Netlist.Nand -> Array.iter (fun a -> pair (a, 0) (g, 1)) fi
    | Netlist.Nor -> Array.iter (fun a -> pair (a, 1) (g, 0)) fi
    | Netlist.Buf | Netlist.Po ->
      pair (fi.(0), 0) (g, 0);
      pair (fi.(0), 1) (g, 1)
    | Netlist.Not ->
      pair (fi.(0), 0) (g, 1);
      pair (fi.(0), 1) (g, 0)
    | Netlist.Xor | Netlist.Xnor | Netlist.Mux2 | Netlist.Pi | Netlist.Dff
    | Netlist.Const0 | Netlist.Const1 -> ()
  done;
  (* All-X baseline: only constants (and what they force) are concrete. *)
  let base = Sim.tcreate nl in
  Sim.teval nl base;
  if n <= learn_max_nodes then begin
    let scratch = Array.copy base in
    let eval = Sim.teval_fn nl scratch in
    let heap = Sim.heap_create nl in
    let touched = Array.make n 0 in
    let push_fanouts v =
      List.iter
        (fun w -> if Netlist.kind nl w <> Netlist.Dff then Sim.heap_push heap w)
        (Netlist.fanout nl v)
    in
    let v = ref 0 in
    while !v < n && !edges < total_cap do
      let src = !v in
      if base.(src) = x then
        for b = 0 to 1 do
          let lit = (2 * src) + b in
          scratch.(src) <- b;
          Sim.heap_reset heap;
          push_fanouts src;
          let n_touched = ref 0 and learned = ref 0 in
          while not (Sim.heap_is_empty heap) do
            let w = Sim.heap_pop heap in
            eval w;
            if scratch.(w) <> base.(w) then begin
              touched.(!n_touched) <- w;
              incr n_touched;
              push_fanouts w;
              if
                scratch.(w) <> x && base.(w) = x
                && !learned < per_lit_cap && !edges < total_cap
              then begin
                incr learned;
                add_edge lit ((2 * w) + scratch.(w));
                (* contrapositive *)
                add_edge ((2 * w) + (1 - scratch.(w))) ((2 * src) + (1 - b))
              end
            end
          done;
          scratch.(src) <- base.(src);
          for i = 0 to !n_touched - 1 do
            scratch.(touched.(i)) <- base.(touched.(i))
          done
        done;
      incr v
    done
  end;
  { i_n = n; i_succs = succs; i_base = base; i_edges = !edges;
    i_stamp = Array.make n 0; i_sval = Array.make n 0; i_clock = 0 }

let n_edges t = t.i_edges

let implied t (v, b) =
  if v < 0 || v >= t.i_n then []
  else List.map (fun l -> (l / 2, l land 1)) t.i_succs.((2 * v) + b)

let closure t lits =
  t.i_clock <- t.i_clock + 1;
  let s = t.i_clock in
  let contradiction = ref false in
  let acc = ref [] in
  let queue = Queue.create () in
  let assume (v, b) =
    if v >= 0 && v < t.i_n && not !contradiction then begin
      if t.i_base.(v) <> x && t.i_base.(v) <> b then contradiction := true
      else if t.i_stamp.(v) = s then begin
        if t.i_sval.(v) <> b then contradiction := true
      end
      else begin
        t.i_stamp.(v) <- s;
        t.i_sval.(v) <- b;
        acc := (v, b) :: !acc;
        Queue.add ((2 * v) + b) queue
      end
    end
  in
  List.iter assume lits;
  while (not !contradiction) && not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    List.iter (fun l' -> assume (l' / 2, l' land 1)) t.i_succs.(l)
  done;
  if !contradiction then Contradiction
  else Consistent (List.sort compare !acc)
