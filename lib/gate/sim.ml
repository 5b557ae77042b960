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

(* The value gate [v] reads on input [pin]: its fanin's, or a pin
   fault's constant written into [scratch.(pin)]. *)
let pread tab scratch st fi v pin =
  match pin_fault tab v pin with
  | Some f ->
    let b = scratch.(pin) in
    Bitvec.fill b f.Fault.stuck;
    b
  | None -> st.values.(fi.(pin))

(* One node of the pattern-parallel pass, shared by [peval] and
   [peval_cone]: fanins read through the pin-fault table, then the stem
   override.  [scratch] holds three vectors, one per pin; the inverting
   gates have two inputs, so pin 2's doubles as their temporary. *)
let pstep tab scratch nl st v =
  let dst = st.values.(v) in
  (match Netlist.kind nl v with
   | Netlist.Pi | Netlist.Dff -> () (* sources: keep assigned values *)
   | Netlist.Const0 -> Bitvec.fill dst false
   | Netlist.Const1 -> Bitvec.fill dst true
   | k ->
     let fi = Netlist.fanin nl v in
     let a = pread tab scratch st fi v 0 in
     (match k with
      | Netlist.Po | Netlist.Buf -> Bitvec.assign ~dst a
      | Netlist.Not -> Bitvec.not_ ~dst a
      | Netlist.And -> Bitvec.and_ ~dst a (pread tab scratch st fi v 1)
      | Netlist.Or -> Bitvec.or_ ~dst a (pread tab scratch st fi v 1)
      | Netlist.Xor -> Bitvec.xor ~dst a (pread tab scratch st fi v 1)
      | Netlist.Nand ->
        Bitvec.and_ ~dst:scratch.(2) a (pread tab scratch st fi v 1);
        Bitvec.not_ ~dst scratch.(2)
      | Netlist.Nor ->
        Bitvec.or_ ~dst:scratch.(2) a (pread tab scratch st fi v 1);
        Bitvec.not_ ~dst scratch.(2)
      | Netlist.Xnor ->
        Bitvec.xor ~dst:scratch.(2) a (pread tab scratch st fi v 1);
        Bitvec.not_ ~dst scratch.(2)
      | Netlist.Mux2 ->
        Bitvec.mux ~dst a (pread tab scratch st fi v 1)
          (pread tab scratch st fi v 2)
      | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 ->
        assert false));
  match stem_fault tab v with
  | Some f -> Bitvec.fill dst f.Fault.stuck
  | None -> ()

let pscratch st = Array.init 3 (fun _ -> Bitvec.create st.n_patterns)

let peval ?(faults = []) nl st =
  let tab = fault_tab faults and scratch = pscratch st in
  Array.iter (fun v -> pstep tab scratch nl st v) (Netlist.topo_order nl)

let peval_cone ?(faults = []) nl st cone =
  let tab = fault_tab faults and scratch = pscratch st in
  Array.iter (fun v -> pstep tab scratch nl st v) cone

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
            Bitvec.fill tmp f.Fault.stuck;
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
      | Some f -> Bitvec.fill st.values.(d) f.Fault.stuck
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

let teval_node kinds fanins (st : tstate) v =
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
  let order = Netlist.topo_order nl in
  match tab with
  | Ft_list [] ->
    Array.iter (fun v -> teval_node kinds fanins st v) order
  | _ -> Array.iter (fun v -> teval_node_faulty tab kinds fanins st v) order

let teval_fn ?(faults = []) nl =
  let tab = fault_tab faults in
  let kinds = Netlist.raw_kinds nl and fanins = Netlist.raw_fanins nl in
  match tab with
  | Ft_list [] -> fun st v -> teval_node kinds fanins st v
  | _ -> fun st v -> teval_node_faulty tab kinds fanins st v

(* Wavefront queue: a bitmap over topological positions, 32 to a word.
   Each node is queued at most once per round ([seen] holds the round
   stamp a node was last queued in), positions are unique, and a pop
   takes the lowest set bit of the first non-empty word at or after
   [lo]: every pop returns the lowest-positioned queued node, the one a
   binary heap keyed on {!Netlist.topo_pos} would return, so evaluation
   order, and with it PODEM's effort counters, does not depend on the
   queue's implementation.  No bit is set below word [lo] or above word
   [hi]: a push below [lo] (a [Dff] consumer sits before the gates that
   feed it) moves [lo] back, and a reset of a queue its caller stopped
   draining early clears words [lo..hi]. *)
type heap = {
  mutable pos : int array;
  mutable order : int array; (* position -> node *)
  mutable bits : int array;
  mutable seen : int array;
  mutable round : int;
  mutable size : int;
  mutable lo : int;
  mutable hi : int;
}

let heap_reset h =
  if h.size > 0 then Array.fill h.bits h.lo (h.hi - h.lo + 1) 0;
  h.size <- 0;
  h.lo <- max_int;
  h.hi <- -1;
  h.round <- h.round + 1

(* O(1) unless [nl] is the largest netlist yet: both position maps are
   the netlist's own caches.  Rebinding keeps [seen]'s stamps: every
   one is below the new round. *)
let heap_bind h nl =
  let n = Netlist.n_nodes nl in
  heap_reset h;
  h.pos <- Netlist.topo_pos nl;
  h.order <- Netlist.topo_order nl;
  if Array.length h.seen < n then begin
    h.seen <- Array.make n 0;
    h.bits <- Array.make ((n lsr 5) + 1) 0
  end

let heap_create nl =
  let h =
    { pos = [||]; order = [||]; bits = [||]; seen = [||]; round = 0;
      size = 0; lo = max_int; hi = -1 }
  in
  heap_bind h nl;
  h

let heap_is_empty h = h.size = 0

let heap_push h v =
  if h.seen.(v) <> h.round then begin
    h.seen.(v) <- h.round;
    let p = h.pos.(v) in
    let w = p lsr 5 in
    h.bits.(w) <- h.bits.(w) lor (1 lsl (p land 31));
    h.size <- h.size + 1;
    if w < h.lo then h.lo <- w;
    if w > h.hi then h.hi <- w
  end

(* Bit index of a one-bit word below 2^32: de Bruijn multiply and
   lookup. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let heap_pop h =
  let bits = h.bits in
  let w = ref h.lo in
  while bits.(!w) = 0 do
    incr w
  done;
  h.lo <- !w;
  let b = bits.(!w) in
  let low = b land -b in
  bits.(!w) <- b lxor low;
  h.size <- h.size - 1;
  h.order.((!w lsl 5)
           lor debruijn.(((low * 0x077CB531) land 0xFFFFFFFF) lsr 27))

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
