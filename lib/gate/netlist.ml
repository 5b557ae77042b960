type kind =
  | Pi
  | Po
  | Dff
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux2

type t = {
  cname : string;
  mutable kinds : kind array;
  mutable fanins : int array array;
  mutable names : string array;
  mutable n : int;
  mutable fanouts : int list array option; (* cache *)
  mutable fanout_arrays : int array array option; (* the same, as arrays *)
  mutable topo_order : int array option; (* position -> node *)
  mutable topo_pos : int array option; (* node -> position *)
  mutable cones : int array option array option; (* fanout_cone cache *)
  mutable scratch : int array; (* fanout_cone's visit stamps, grown on demand *)
  mutable scratch_stamp : int;
  mutable version : int; (* bumped by add/set_fanin *)
}

let create ?(name = "netlist") () =
  {
    cname = name;
    kinds = Array.make 64 Pi;
    fanins = Array.make 64 [||];
    names = Array.make 64 "";
    n = 0;
    fanouts = None;
    fanout_arrays = None;
    topo_order = None;
    topo_pos = None;
    cones = None;
    scratch = [||];
    scratch_stamp = 0;
    version = 0;
  }

(* Structural copy for per-domain ATPG workspaces: node ids are array
   positions, so ids, fault sites and observe lists transfer verbatim
   between a netlist and its copy.  Derived caches and the cone scratch
   are dropped — each domain rebuilds its own — and the version is
   carried over so version-keyed caches treat copy and original
   alike. *)
let copy nl =
  {
    cname = nl.cname;
    kinds = Array.copy nl.kinds;
    fanins = Array.map Array.copy nl.fanins;
    names = Array.copy nl.names;
    n = nl.n;
    fanouts = None;
    fanout_arrays = None;
    topo_order = None;
    topo_pos = None;
    cones = None;
    scratch = [||];
    scratch_stamp = 0;
    version = nl.version;
  }

(* Drops every derived cache after a structural edit. *)
let invalidate nl =
  nl.fanouts <- None;
  nl.fanout_arrays <- None;
  nl.topo_order <- None;
  nl.topo_pos <- None;
  nl.cones <- None;
  nl.version <- nl.version + 1

let arity = function
  | Pi | Const0 | Const1 -> 0
  | Po | Buf | Not | Dff -> 1
  | And | Or | Nand | Nor | Xor | Xnor -> 2
  | Mux2 -> 3

let add nl ?(name = "") kind fanins =
  if Array.length fanins <> arity kind then
    Hft_robust.Validation.fail ~site:"netlist.add"
      ~hint:
        (Printf.sprintf "this gate kind takes %d fanin(s), got %d"
           (arity kind) (Array.length fanins))
      (Printf.sprintf "arity mismatch on node %d%s" nl.n
         (if name = "" then "" else " (" ^ name ^ ")"));
  Array.iter
    (fun f ->
      if f < 0 || f >= nl.n then
        Hft_robust.Validation.fail ~site:"netlist.add"
          ~hint:"fanins must reference already-created nodes"
          (Printf.sprintf "dangling fanin %d on node %d%s (only %d nodes exist)"
             f nl.n
             (if name = "" then "" else " (" ^ name ^ ")")
             nl.n))
    fanins;
  if nl.n >= Array.length nl.kinds then begin
    let cap = 2 * Array.length nl.kinds in
    let k = Array.make cap Pi and f = Array.make cap [||] in
    let s = Array.make cap "" in
    Array.blit nl.kinds 0 k 0 nl.n;
    Array.blit nl.fanins 0 f 0 nl.n;
    Array.blit nl.names 0 s 0 nl.n;
    nl.kinds <- k;
    nl.fanins <- f;
    nl.names <- s
  end;
  let id = nl.n in
  nl.kinds.(id) <- kind;
  nl.fanins.(id) <- fanins;
  nl.names.(id) <- (if name = "" then Printf.sprintf "n%d" id else name);
  nl.n <- id + 1;
  invalidate nl;
  id

let n_nodes nl = nl.n
let version nl = nl.version

let check nl i =
  if i < 0 || i >= nl.n then invalid_arg "Netlist: node out of range"

let kind nl i = check nl i; nl.kinds.(i)
let fanin nl i = check nl i; nl.fanins.(i)
let raw_kinds nl = nl.kinds
let raw_fanins nl = nl.fanins
let node_name nl i = check nl i; nl.names.(i)
let circuit_name nl = nl.cname

let fanout_lists nl =
  match nl.fanouts with
  | Some c -> c
  | None ->
    let c = Array.make nl.n [] in
    for v = nl.n - 1 downto 0 do
      Array.iter (fun f -> c.(f) <- v :: c.(f)) nl.fanins.(v)
    done;
    nl.fanouts <- Some c;
    c

let fanout nl i =
  check nl i;
  (fanout_lists nl).(i)

let fanouts nl =
  match nl.fanout_arrays with
  | Some a -> a
  | None ->
    let a = Array.map Array.of_list (fanout_lists nl) in
    nl.fanout_arrays <- Some a;
    a

let set_fanin nl node pin new_src =
  check nl node;
  check nl new_src;
  let fi = nl.fanins.(node) in
  if pin < 0 || pin >= Array.length fi then
    Hft_robust.Validation.fail ~site:"netlist.set_fanin"
      ~hint:"pin index must be within the node's fanin arity"
      (Printf.sprintf "pin %d out of range on node %d (arity %d)" pin node
         (Array.length fi));
  fi.(pin) <- new_src;
  invalidate nl

let of_kind nl k =
  let acc = ref [] in
  for i = nl.n - 1 downto 0 do
    if nl.kinds.(i) = k then acc := i :: !acc
  done;
  !acc

let pis nl = of_kind nl Pi
let pos nl = of_kind nl Po
let dffs nl = of_kind nl Dff

let n_gates nl =
  let c = ref 0 in
  for i = 0 to nl.n - 1 do
    match nl.kinds.(i) with
    | Pi | Po | Const0 | Const1 -> ()
    | Dff | Buf | Not | And | Or | Nand | Nor | Xor | Xnor | Mux2 -> incr c
  done;
  !c

let topo_order_uncached nl =
  (* Kahn over combinational edges; Dff outputs are sources, Dff inputs
     terminate paths. *)
  let indeg = Array.make nl.n 0 in
  for v = 0 to nl.n - 1 do
    match nl.kinds.(v) with
    | Dff | Pi | Const0 | Const1 -> ()
    | Po | Buf | Not | And | Or | Nand | Nor | Xor | Xnor | Mux2 ->
      indeg.(v) <- Array.length nl.fanins.(v)
  done;
  let q = Queue.create () in
  for v = 0 to nl.n - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    incr seen;
    order := v :: !order;
    List.iter
      (fun w ->
        match nl.kinds.(w) with
        | Dff -> () (* sequential edge *)
        | Pi | Const0 | Const1 -> ()
        | Po | Buf | Not | And | Or | Nand | Nor | Xor | Xnor | Mux2 ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then Queue.add w q)
      (fanout nl v)
  done;
  (* Dffs never enter the queue via fanin-counting above unless... they
     have indeg 0 and were enqueued as sources; all fine.  Check
     completeness over combinational nodes. *)
  let total = ref 0 in
  for v = 0 to nl.n - 1 do
    match nl.kinds.(v) with
    | Dff -> incr total (* enqueued as source *)
    | Pi | Const0 | Const1 | Po | Buf | Not | And | Or | Nand | Nor | Xor
    | Xnor | Mux2 -> incr total
  done;
  if !seen <> !total then
    Hft_robust.Validation.fail ~site:"netlist.comb_order"
      ~hint:"break the loop with a Dff, or fix the fanin wiring"
      (Printf.sprintf
         "combinational cycle: %d of %d nodes unreachable from sources"
         (!total - !seen) !total);
  List.rev !order

let topo_order nl =
  match nl.topo_order with
  | Some o -> o
  | None ->
    let o = Array.of_list (topo_order_uncached nl) in
    nl.topo_order <- Some o;
    o

let topo_pos nl =
  match nl.topo_pos with
  | Some p -> p
  | None ->
    let p = Array.make nl.n 0 in
    Array.iteri (fun i v -> p.(v) <- i) (topo_order nl);
    nl.topo_pos <- Some p;
    p

(* Forward closure over combinational edges only: a [Dff] consumer
   terminates the walk because a single combinational pass never
   updates its state.  Nodes already stamped are not entered, so roots
   walked under one stamp visit the union of their cones once. *)
let walk_cone nl marks stamp root f =
  check nl root;
  let fo = fanouts nl and kinds = nl.kinds in
  let rec visit v =
    if marks.(v) <> stamp then begin
      marks.(v) <- stamp;
      f v;
      let ws = fo.(v) in
      for i = 0 to Array.length ws - 1 do
        let w = ws.(i) in
        if kinds.(w) <> Dff then visit w
      done
    end
  in
  visit root

let mark_cone nl marks stamp root = walk_cone nl marks stamp root ignore

let fanout_cone nl root =
  check nl root;
  let cache =
    match nl.cones with
    | Some c when Array.length c = nl.n -> c
    | Some _ | None ->
      let c = Array.make nl.n None in
      nl.cones <- Some c;
      c
  in
  match cache.(root) with
  | Some cone -> cone
  | None ->
    let pos = topo_pos nl in
    if Array.length nl.scratch < nl.n then nl.scratch <- Array.make nl.n 0;
    nl.scratch_stamp <- nl.scratch_stamp + 1;
    let acc = ref [] and count = ref 0 in
    walk_cone nl nl.scratch nl.scratch_stamp root (fun v ->
        acc := v :: !acc;
        incr count);
    let cone = Array.make !count root in
    List.iteri (fun i v -> cone.(i) <- v) !acc;
    Array.sort (fun a b -> compare pos.(a) pos.(b)) cone;
    cache.(root) <- Some cone;
    cone

let fanout_cone_union nl = function
  | [] -> [||]
  | [ r ] -> fanout_cone nl r
  | r :: rs ->
    (* Memoized cones are already sorted by topological position, so the
       union is a plain sorted-merge with duplicate elimination — no
       hashing, no re-sort. *)
    let pos = topo_pos nl in
    let merge a b =
      let la = Array.length a and lb = Array.length b in
      let out = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let va = a.(!i) and vb = b.(!j) in
        if va = vb then begin
          out.(!k) <- va;
          incr i;
          incr j
        end
        else if pos.(va) < pos.(vb) then begin
          out.(!k) <- va;
          incr i
        end
        else begin
          out.(!k) <- vb;
          incr j
        end;
        incr k
      done;
      while !i < la do
        out.(!k) <- a.(!i);
        incr i;
        incr k
      done;
      while !j < lb do
        out.(!k) <- b.(!j);
        incr j;
        incr k
      done;
      if !k = la + lb then out else Array.sub out 0 !k
    in
    List.fold_left
      (fun acc r -> merge acc (fanout_cone nl r))
      (fanout_cone nl r) rs

(* 3-valued: 0, 1, 2 = X. *)
let x = 2

let tri_not = function 0 -> 1 | 1 -> 0 | _ -> x

let tri_and a b =
  if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else x

let tri_or a b =
  if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else x

let tri_xor a b = if a = x || b = x then x else if a <> b then 1 else 0

let tri_mux s a b =
  match s with 0 -> a | 1 -> b | _ -> if a = b then a else x

let validate nl =
  ignore (topo_order nl);
  for v = 0 to nl.n - 1 do
    Array.iter
      (fun f ->
        if nl.kinds.(f) = Po then
          Hft_robust.Validation.fail ~site:"netlist.validate"
            ~hint:"drive the consumer from the Po's fanin instead"
            (Printf.sprintf "Po node %d used as fanin of node %d" f v))
      nl.fanins.(v)
  done

let stats nl =
  Printf.sprintf "%s: %d nodes, %d gates, %d PIs, %d POs, %d DFFs"
    nl.cname nl.n (n_gates nl) (List.length (pis nl)) (List.length (pos nl))
    (List.length (dffs nl))
