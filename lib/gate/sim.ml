open Hft_util

type pstate = { values : Bitvec.t array; n_patterns : int }

let pcreate nl ~n_patterns =
  {
    values = Array.init (Netlist.n_nodes nl) (fun _ -> Bitvec.create n_patterns);
    n_patterns;
  }

let pset_pi st pi v = Bitvec.assign ~dst:st.values.(pi) v

let pset_state = pset_pi
let pvalue st v = st.values.(v)

(* Fault forcing helpers.  The common case in the hot simulation loops
   is a list of one or two injection sites (one logical fault, possibly
   replicated across time frames): a direct scan of such a list beats
   any table.  Long lists — batch forcing — are preprocessed into hash
   tables so per-node probes stay O(1).  Forcing semantics match the
   original list scans either way: for stem faults the last matching
   entry wins, for pin faults the first. *)
type fault_tab =
  | Ft_list of Fault.t list
  | Ft_tab of {
      ft_stem : (int, Fault.t) Hashtbl.t;
      ft_pin : (int * int, Fault.t) Hashtbl.t;
    }

let fault_tab faults =
  if List.compare_length_with faults 8 <= 0 then Ft_list faults
  else begin
    let ft_stem = Hashtbl.create 16 and ft_pin = Hashtbl.create 16 in
    List.iter
      (fun f ->
        match f.Fault.pin with
        | None -> Hashtbl.replace ft_stem f.Fault.node f
        | Some p ->
          if not (Hashtbl.mem ft_pin (f.Fault.node, p)) then
            Hashtbl.add ft_pin (f.Fault.node, p) f)
      faults;
    Ft_tab { ft_stem; ft_pin }
  end

(* Closure-free list probes: the simulator calls these per node (stem)
   and per gate input (pin), so they must not allocate on the miss
   path — hand-rolled recursion instead of [List.find_opt]. *)
let rec list_stem_fault fs v best =
  match fs with
  | [] -> best
  | f :: tl ->
    list_stem_fault tl v
      (if f.Fault.pin = None && f.Fault.node = v then Some f else best)

let rec list_pin_fault fs v p =
  match fs with
  | [] -> None
  | f :: tl ->
    (match f.Fault.pin with
     | Some q when q = p && f.Fault.node = v -> Some f
     | _ -> list_pin_fault tl v p)

let stem_fault tab v =
  match tab with
  | Ft_list fs -> list_stem_fault fs v None
  | Ft_tab t -> Hashtbl.find_opt t.ft_stem v

let pin_fault tab v p =
  match tab with
  | Ft_list fs -> list_pin_fault fs v p
  | Ft_tab t -> Hashtbl.find_opt t.ft_pin (v, p)

let force_bitvec dst stuck =
  Bitvec.fill dst stuck

let peval ?(faults = []) nl st =
  let order = Netlist.comb_order nl in
  let tab = fault_tab faults in
  let scratch = Array.init 3 (fun _ -> Bitvec.create st.n_patterns) in
  let read v consumer pin =
    match pin_fault tab consumer pin with
    | Some f ->
      let tmp = scratch.(pin) in
      force_bitvec tmp f.Fault.stuck;
      tmp
    | None -> st.values.(v)
  in
  List.iter
    (fun v ->
      (match Netlist.kind nl v with
       | Netlist.Pi | Netlist.Dff -> () (* sources: keep assigned values *)
       | Netlist.Const0 -> Bitvec.fill st.values.(v) false
       | Netlist.Const1 -> Bitvec.fill st.values.(v) true
       | Netlist.Po | Netlist.Buf ->
         Bitvec.assign ~dst:st.values.(v) (read (Netlist.fanin nl v).(0) v 0)
       | Netlist.Not ->
         Bitvec.not_ ~dst:st.values.(v) (read (Netlist.fanin nl v).(0) v 0)
       | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor
       | Netlist.Xnor ->
         let fi = Netlist.fanin nl v in
         let a = read fi.(0) v 0 and b = read fi.(1) v 1 in
         (match Netlist.kind nl v with
          | Netlist.And -> Bitvec.and_ ~dst:st.values.(v) a b
          | Netlist.Or -> Bitvec.or_ ~dst:st.values.(v) a b
          | Netlist.Xor -> Bitvec.xor ~dst:st.values.(v) a b
          | Netlist.Nand ->
            Bitvec.and_ ~dst:scratch.(2) a b;
            Bitvec.not_ ~dst:st.values.(v) scratch.(2)
          | Netlist.Nor ->
            Bitvec.or_ ~dst:scratch.(2) a b;
            Bitvec.not_ ~dst:st.values.(v) scratch.(2)
          | Netlist.Xnor ->
            Bitvec.xor ~dst:scratch.(2) a b;
            Bitvec.not_ ~dst:st.values.(v) scratch.(2)
          | _ -> assert false)
       | Netlist.Mux2 ->
         let fi = Netlist.fanin nl v in
         let s = read fi.(0) v 0 in
         let a = read fi.(1) v 1 and b = read fi.(2) v 2 in
         Bitvec.mux ~dst:st.values.(v) s a b);
      (* Stem faults override the computed value. *)
      match stem_fault tab v with
      | Some f -> force_bitvec st.values.(v) f.Fault.stuck
      | None -> ())
    order

let pclock ?(faults = []) nl st =
  (* Sample D inputs simultaneously. *)
  let dffs = Netlist.dffs nl in
  let tab = fault_tab faults in
  let sampled =
    List.map
      (fun d ->
        let src = (Netlist.fanin nl d).(0) in
        let v =
          match pin_fault tab d 0 with
          | Some f ->
            let tmp = Bitvec.create st.n_patterns in
            force_bitvec tmp f.Fault.stuck;
            tmp
          | None -> Bitvec.copy st.values.(src)
        in
        (d, v))
      dffs
  in
  List.iter
    (fun (d, v) ->
      Bitvec.assign ~dst:st.values.(d) v;
      (* Stem fault on the DFF forces its state. *)
      match stem_fault tab d with
      | Some f -> force_bitvec st.values.(d) f.Fault.stuck
      | None -> ())
    sampled

type tstate = int array

let tcreate nl = Array.make (Netlist.n_nodes nl) 2

(* Single-node 3-valued evaluation with fault forcing — non-allocating;
   shared by the full pass ([teval]) and the event-driven walks
   ([teval_fn]).  The faultless case (every good-machine pass) skips
   the probes entirely. *)
let teval_read tab (st : tstate) (fi : int array) pin v =
  match pin_fault tab v pin with
  | Some f -> if f.Fault.stuck then 1 else 0
  | None -> Array.unsafe_get st (Array.unsafe_get fi pin)

let teval_node_nofault kinds fanins (st : tstate) v =
  match Array.unsafe_get kinds v with
  | Netlist.Pi | Netlist.Dff -> ()
  | Netlist.Const0 -> Array.unsafe_set st v 0
  | Netlist.Const1 -> Array.unsafe_set st v 1
  | k ->
    let fi = Array.unsafe_get fanins v in
    let a = Array.unsafe_get st (Array.unsafe_get fi 0) in
    Array.unsafe_set st v
      (match k with
       | Netlist.Po | Netlist.Buf -> a
       | Netlist.Not -> Netlist.tri_not a
       | Netlist.And ->
         Netlist.tri_and a (Array.unsafe_get st (Array.unsafe_get fi 1))
       | Netlist.Or ->
         Netlist.tri_or a (Array.unsafe_get st (Array.unsafe_get fi 1))
       | Netlist.Nand ->
         Netlist.tri_not
           (Netlist.tri_and a (Array.unsafe_get st (Array.unsafe_get fi 1)))
       | Netlist.Nor ->
         Netlist.tri_not
           (Netlist.tri_or a (Array.unsafe_get st (Array.unsafe_get fi 1)))
       | Netlist.Xor ->
         Netlist.tri_xor a (Array.unsafe_get st (Array.unsafe_get fi 1))
       | Netlist.Xnor ->
         Netlist.tri_not
           (Netlist.tri_xor a (Array.unsafe_get st (Array.unsafe_get fi 1)))
       | Netlist.Mux2 ->
         Netlist.tri_mux a
           (Array.unsafe_get st (Array.unsafe_get fi 1))
           (Array.unsafe_get st (Array.unsafe_get fi 2))
       | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 ->
         assert false)

let teval_node_faulty tab kinds fanins (st : tstate) v =
  (match Array.unsafe_get kinds v with
   | Netlist.Pi | Netlist.Dff -> ()
   | Netlist.Const0 -> Array.unsafe_set st v 0
   | Netlist.Const1 -> Array.unsafe_set st v 1
   | k ->
     let fi = Array.unsafe_get fanins v in
     let a = teval_read tab st fi 0 v in
     Array.unsafe_set st v
       (match k with
        | Netlist.Po | Netlist.Buf -> a
        | Netlist.Not -> Netlist.tri_not a
        | Netlist.And -> Netlist.tri_and a (teval_read tab st fi 1 v)
        | Netlist.Or -> Netlist.tri_or a (teval_read tab st fi 1 v)
        | Netlist.Nand ->
          Netlist.tri_not (Netlist.tri_and a (teval_read tab st fi 1 v))
        | Netlist.Nor ->
          Netlist.tri_not (Netlist.tri_or a (teval_read tab st fi 1 v))
        | Netlist.Xor -> Netlist.tri_xor a (teval_read tab st fi 1 v)
        | Netlist.Xnor ->
          Netlist.tri_not (Netlist.tri_xor a (teval_read tab st fi 1 v))
        | Netlist.Mux2 ->
          Netlist.tri_mux a (teval_read tab st fi 1 v)
            (teval_read tab st fi 2 v)
        | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 ->
          assert false));
  match stem_fault tab v with
  | Some f -> st.(v) <- (if f.Fault.stuck then 1 else 0)
  | None -> ()


let teval ?(faults = []) nl st =
  let tab = fault_tab faults in
  let kinds = Netlist.raw_kinds nl and fanins = Netlist.raw_fanins nl in
  let order = Netlist.comb_order nl in
  match tab with
  | Ft_list [] ->
    List.iter (fun v -> teval_node_nofault kinds fanins st v) order
  | _ -> List.iter (fun v -> teval_node_faulty tab kinds fanins st v) order

let teval_fn ?(faults = []) nl =
  let tab = fault_tab faults in
  let kinds = Netlist.raw_kinds nl and fanins = Netlist.raw_fanins nl in
  match tab with
  | Ft_list [] -> fun st v -> teval_node_nofault kinds fanins st v
  | _ -> fun st v -> teval_node_faulty tab kinds fanins st v

(* Binary min-heap of node ids keyed by topological position.  Each
   node is queued at most once per round ([seen] holds the round stamp
   a node was last queued in), and positions are unique, so every pop
   returns the lowest-positioned queued node whatever the array layout:
   evaluation order, and with it PODEM's effort counters, does not
   depend on the heap's implementation. *)
type heap = {
  pos : int array;
  items : int array; (* 1-based *)
  mutable size : int;
  seen : int array;
  mutable round : int;
}

let heap_create nl =
  let n = Netlist.n_nodes nl in
  { pos = Netlist.topo_pos nl; items = Array.make (n + 1) 0; size = 0;
    seen = Array.make n 0; round = 1 }

let heap_reset h =
  h.round <- h.round + 1;
  h.size <- 0

let heap_is_empty h = h.size = 0

let heap_push h v =
  if h.seen.(v) <> h.round then begin
    h.seen.(v) <- h.round;
    h.size <- h.size + 1;
    let items = h.items and pos = h.pos in
    let i = ref h.size in
    while !i > 1 && pos.(items.(!i / 2)) > pos.(v) do
      items.(!i) <- items.(!i / 2);
      i := !i / 2
    done;
    items.(!i) <- v
  end

let heap_pop h =
  let items = h.items and pos = h.pos in
  let top = items.(1) in
  let last = items.(h.size) in
  h.size <- h.size - 1;
  let n = h.size in
  let i = ref 1 and continue = ref (n > 0) in
  while !continue do
    let l = 2 * !i in
    let m =
      if l + 1 <= n && pos.(items.(l + 1)) < pos.(items.(l)) then l + 1 else l
    in
    if m <= n && pos.(items.(m)) < pos.(last) then begin
      items.(!i) <- items.(m);
      i := m
    end
    else continue := false
  done;
  if n > 0 then items.(!i) <- last;
  top

let run_cycles ?(faults = []) ?init nl ~stimuli =
  (* The state's own bitvecs are written in place: no per-PI scratch
     vector per stimulus, and the init bits are indexed once instead of
     [List.nth] per flip-flop. *)
  let pis = Array.of_list (Netlist.pis nl) in
  let pos = Array.of_list (Netlist.pos nl) in
  let st = pcreate nl ~n_patterns:1 in
  (match init with
   | None -> ()
   | Some bits ->
     let bits = Array.of_list bits in
     List.iteri
       (fun i d -> Bitvec.set st.values.(d) 0 bits.(i))
       (Netlist.dffs nl));
  Array.map
    (fun stimulus ->
      Array.iteri
        (fun i pi -> Bitvec.set st.values.(pi) 0 stimulus.(i))
        pis;
      peval ~faults nl st;
      let out = Array.map (fun po -> Bitvec.get st.values.(po) 0) pos in
      pclock ~faults nl st;
      out)
    stimuli
