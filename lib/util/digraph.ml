type t = {
  n : int;
  mutable m : int;
  succ : int list array;
  pred : int list array;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create";
  { n; m = 0; succ = Array.make n []; pred = Array.make n [] }

let order g = g.n
let size g = g.m

let check g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph: vertex out of range"

(* [List.mem] would compare polymorphically, element by element. *)
let rec mem_int (v : int) = function
  | [] -> false
  | w :: tl -> w = v || mem_int v tl

let mem_edge g u v =
  check g u;
  check g v;
  mem_int v g.succ.(u)

let insert g u v =
  g.succ.(u) <- v :: g.succ.(u);
  g.pred.(v) <- u :: g.pred.(v);
  g.m <- g.m + 1

let add_edge g u v = if not (mem_edge g u v) then insert g u v

(* One bit per vertex pair makes the duplicate test O(1), where
   [add_edge] walks the source's successor list. *)
let of_edges n iter =
  let g = create n in
  let seen = Bitvec.create (n * n) in
  iter (fun u v ->
      check g u;
      check g v;
      let k = (u * n) + v in
      if not (Bitvec.get seen k) then begin
        Bitvec.set seen k true;
        insert g u v
      end);
  g

let remove_edge g u v =
  if mem_edge g u v then begin
    g.succ.(u) <- List.filter (fun w -> w <> v) g.succ.(u);
    g.pred.(v) <- List.filter (fun w -> w <> u) g.pred.(v);
    g.m <- g.m - 1
  end

let succ g v = check g v; g.succ.(v)
let pred g v = check g v; g.pred.(v)
let out_degree g v = List.length (succ g v)
let in_degree g v = List.length (pred g v)

let detach g v =
  check g v;
  List.iter (fun w -> remove_edge g v w) (succ g v);
  List.iter (fun w -> remove_edge g w v) (pred g v)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> f u v) g.succ.(u)
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun u v l -> (u, v) :: l) g [])

let copy g =
  { n = g.n; m = g.m; succ = Array.copy g.succ; pred = Array.copy g.pred }

let transpose g =
  { n = g.n; m = g.m; succ = Array.copy g.pred; pred = Array.copy g.succ }

let has_self_loop g v = mem_edge g v v

let self_loops g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if has_self_loop g v then acc := v :: !acc
  done;
  !acc

(* Tarjan's SCC, iterative to survive deep graphs. *)
let scc g =
  let n = g.n in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Explicit DFS stack: (vertex, remaining successors). *)
  let strongconnect v0 =
    let call = Stack.create () in
    index.(v0) <- !next_index;
    low.(v0) <- !next_index;
    incr next_index;
    stack := v0 :: !stack;
    on_stack.(v0) <- true;
    Stack.push (v0, ref g.succ.(v0)) call;
    while not (Stack.is_empty call) do
      let v, rest = Stack.top call in
      match !rest with
      | w :: tl ->
        rest := tl;
        if index.(w) = -1 then begin
          index.(w) <- !next_index;
          low.(w) <- !next_index;
          incr next_index;
          stack := w :: !stack;
          on_stack.(w) <- true;
          Stack.push (w, ref g.succ.(w)) call
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
      | [] ->
        ignore (Stack.pop call);
        if low.(v) = index.(v) then begin
          (* v is the root of an SCC: pop it. *)
          let rec pop () =
            match !stack with
            | [] -> ()
            | w :: tl ->
              stack := tl;
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              if w <> v then pop ()
          in
          pop ();
          incr next_comp
        end;
        (match Stack.top_opt call with
         | Some (parent, _) -> low.(parent) <- min low.(parent) low.(v)
         | None -> ())
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (!next_comp, comp)

let scc_members g =
  let count, comp = scc g in
  let members = Array.make count [] in
  for v = g.n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  members

let topological_sort g =
  let indeg = Array.init g.n (fun v -> in_degree g v) in
  let queue = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let out = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    incr seen;
    out := v :: !out;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      (succ g v)
  done;
  if !seen = g.n then Some (List.rev !out) else None

let is_acyclic ?(ignore_self_loops = false) g =
  if ignore_self_loops then begin
    let g' = copy g in
    List.iter (fun v -> remove_edge g' v v) (self_loops g');
    topological_sort g' <> None
  end
  else topological_sort g <> None

let reachable g v0 =
  check g v0;
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  seen.(v0) <- true;
  Queue.add v0 queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    List.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w queue
        end)
      (succ g v)
  done;
  seen

let bfs_dist g v0 =
  check g v0;
  let dist = Array.make g.n max_int in
  let queue = Queue.create () in
  dist.(v0) <- 0;
  Queue.add v0 queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    List.iter
      (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (succ g v)
  done;
  dist

let longest_path_from_sources g =
  match topological_sort g with
  | None -> invalid_arg "Digraph.longest_path_from_sources: cyclic graph"
  | Some order ->
    let dist = Array.make g.n 0 in
    List.iter
      (fun v ->
        List.iter
          (fun w -> if dist.(v) + 1 > dist.(w) then dist.(w) <- dist.(v) + 1)
          (succ g v))
      order;
    dist

(* The one bounded elementary-cycle enumerator.  For each start vertex
   s (in increasing order) it searches for cycles whose smallest vertex
   is s, which yields each elementary cycle exactly once; successors are
   tried in increasing order.  Walking the predecessor lists in
   increasing vertex order fills every sorted successor array in
   O(V + E); [skip.(v)] then steps past the successors below the current
   start, which only grows.  [on_cycle path len] sees the cycle as
   [path.(0) .. path.(len - 1)], s first, and runs at most [max_count]
   times. *)
let iter_cycles g ~max_len ~max_count on_cycle =
  if max_len >= 1 && max_count >= 1 && g.n > 0 then begin
    let sorted = Array.map (fun l -> Array.make (List.length l) 0) g.succ in
    let filled = Array.make g.n 0 in
    for v = 0 to g.n - 1 do
      List.iter
        (fun u ->
          sorted.(u).(filled.(u)) <- v;
          filled.(u) <- filled.(u) + 1)
        g.pred.(v)
    done;
    let skip = Array.make g.n 0 in
    let on_path = Array.make g.n false in
    let path = Array.make (min max_len g.n) 0 in
    let count = ref 0 in
    let exception Done in
    let rec extend s len v =
      let a = sorted.(v) in
      let k = Array.length a in
      let i = ref skip.(v) in
      while !i < k && a.(!i) < s do incr i done;
      skip.(v) <- !i;
      if !i < k && a.(!i) = s then begin
        on_cycle path len;
        incr count;
        if !count >= max_count then raise Done;
        incr i
      end;
      if len < max_len then
        for j = !i to k - 1 do
          let w = a.(j) in
          if not on_path.(w) then begin
            on_path.(w) <- true;
            path.(len) <- w;
            extend s (len + 1) w;
            on_path.(w) <- false
          end
        done
    in
    try
      for s = 0 to g.n - 1 do
        on_path.(s) <- true;
        path.(0) <- s;
        extend s 1 s;
        on_path.(s) <- false
      done
    with Done -> ()
  end

let cycles g ~max_len ~max_count =
  let found = ref [] in
  iter_cycles g ~max_len ~max_count (fun path len ->
      found := List.init len (Array.get path) :: !found);
  List.rev !found

let count_cycles g ~min_len ~max_len ~max_count =
  let n = ref 0 in
  iter_cycles g ~max_len ~max_count (fun _ len -> if len >= min_len then incr n);
  !n

let to_dot ?(name = string_of_int) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph g {\n";
  for v = 0 to g.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (name v))
  done;
  iter_edges
    (fun u v -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
