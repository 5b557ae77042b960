open Hft_gate

type t = {
  cc0 : int array;
  cc1 : int array;
  co : int array;
  sc0 : int array;
  sc1 : int array;
  so : int array;
}

let infinite = max_int / 4
let is_inf v = v >= infinite

(* Saturating addition so unreachable stays unreachable. *)
let ( +! ) a b = if is_inf a || is_inf b then infinite else min infinite (a + b)

(* Forward (controllability) sweep step for one node; returns the new
   (c0, c1) pair from the current tables.  [comb] selects the
   combinational (+1 per gate) or sequential (+1 per DFF) flavour. *)
let control_of ~comb nl c0 c1 v =
  let gate = if comb then 1 else 0 in
  let flop = 1 in
  let fi = Netlist.fanin nl v in
  match Netlist.kind nl v with
  | Netlist.Pi -> if comb then (1, 1) else (0, 0)
  | Netlist.Const0 -> (0, infinite)
  | Netlist.Const1 -> (infinite, 0)
  | Netlist.Buf | Netlist.Po ->
    let a = fi.(0) in
    let g = if Netlist.kind nl v = Netlist.Po then 0 else gate in
    (c0.(a) +! g, c1.(a) +! g)
  | Netlist.Not ->
    let a = fi.(0) in
    (c1.(a) +! gate, c0.(a) +! gate)
  | Netlist.Dff ->
    let d = fi.(0) in
    (c0.(d) +! flop, c1.(d) +! flop)
  | Netlist.And ->
    let a = fi.(0) and b = fi.(1) in
    (min c0.(a) c0.(b) +! gate, c1.(a) +! c1.(b) +! gate)
  | Netlist.Or ->
    let a = fi.(0) and b = fi.(1) in
    (c0.(a) +! c0.(b) +! gate, min c1.(a) c1.(b) +! gate)
  | Netlist.Nand ->
    let a = fi.(0) and b = fi.(1) in
    (c1.(a) +! c1.(b) +! gate, min c0.(a) c0.(b) +! gate)
  | Netlist.Nor ->
    let a = fi.(0) and b = fi.(1) in
    (min c1.(a) c1.(b) +! gate, c0.(a) +! c0.(b) +! gate)
  | Netlist.Xor ->
    let a = fi.(0) and b = fi.(1) in
    ( min (c0.(a) +! c0.(b)) (c1.(a) +! c1.(b)) +! gate,
      min (c1.(a) +! c0.(b)) (c0.(a) +! c1.(b)) +! gate )
  | Netlist.Xnor ->
    let a = fi.(0) and b = fi.(1) in
    ( min (c1.(a) +! c0.(b)) (c0.(a) +! c1.(b)) +! gate,
      min (c0.(a) +! c0.(b)) (c1.(a) +! c1.(b)) +! gate )
  | Netlist.Mux2 ->
    let s = fi.(0) and a = fi.(1) and b = fi.(2) in
    ( min (c0.(s) +! c0.(a)) (c1.(s) +! c0.(b)) +! gate,
      min (c0.(s) +! c1.(a)) (c1.(s) +! c1.(b)) +! gate )

(* Observability contribution of using net [v] on pin [pin] of node
   [u], given [u]'s own observability [ou]. *)
let observe_via ~comb nl c0 c1 obs u pin v =
  let gate = if comb then 1 else 0 in
  let ou = obs.(u) in
  let fi = Netlist.fanin nl u in
  let other i = fi.(i) in
  ignore v;
  match Netlist.kind nl u with
  | Netlist.Pi | Netlist.Const0 | Netlist.Const1 -> infinite
  | Netlist.Po -> 0
  | Netlist.Buf | Netlist.Not -> ou +! gate
  | Netlist.Dff -> ou +! 1
  | Netlist.And | Netlist.Nand ->
    let o = other (1 - pin) in
    ou +! c1.(o) +! gate
  | Netlist.Or | Netlist.Nor ->
    let o = other (1 - pin) in
    ou +! c0.(o) +! gate
  | Netlist.Xor | Netlist.Xnor ->
    let o = other (1 - pin) in
    ou +! min c0.(o) c1.(o) +! gate
  | Netlist.Mux2 ->
    let s = fi.(0) and a = fi.(1) and b = fi.(2) in
    (match pin with
     | 0 ->
       (* Select observable when the two data legs differ. *)
       ou +! min (c0.(a) +! c1.(b)) (c1.(a) +! c0.(b)) +! gate
     | 1 -> ou +! c0.(s) +! gate
     | _ -> ou +! c1.(s) +! gate)

let fixpoint ~sweeps f =
  let changed = ref true in
  let k = ref 0 in
  while !changed && !k < sweeps do
    changed := f ();
    incr k
  done

let analyze nl =
  let n = Netlist.n_nodes nl in
  let mk () = Array.make n infinite in
  let cc0 = mk () and cc1 = mk () and sc0 = mk () and sc1 = mk () in
  let co = mk () and so = mk () in
  let sweeps = n + 8 in
  (* Controllability: forward chaotic iteration in id order (ids are
     near-topological; rewired nets just take extra sweeps). *)
  let control ~comb c0 c1 =
    fixpoint ~sweeps (fun () ->
        let changed = ref false in
        for v = 0 to n - 1 do
          let n0, n1 = control_of ~comb nl c0 c1 v in
          if n0 < c0.(v) then begin c0.(v) <- n0; changed := true end;
          if n1 < c1.(v) then begin c1.(v) <- n1; changed := true end
        done;
        !changed)
  in
  control ~comb:true cc0 cc1;
  control ~comb:false sc0 sc1;
  (* Observability: backward over fanouts; a net's measure is the
     cheapest fanout branch. *)
  let fanouts = Netlist.fanouts nl in
  let observe ~comb c0 c1 obs =
    List.iter (fun p -> obs.(p) <- 0) (Netlist.pos nl);
    fixpoint ~sweeps (fun () ->
        let changed = ref false in
        for v = n - 1 downto 0 do
          if Netlist.kind nl v <> Netlist.Po then begin
            let best = ref infinite in
            Array.iter
              (fun u ->
                let fi = Netlist.fanin nl u in
                Array.iteri
                  (fun pin src ->
                    if src = v then
                      best :=
                        min !best (observe_via ~comb nl c0 c1 obs u pin v))
                  fi)
              fanouts.(v);
            if !best < obs.(v) then begin
              obs.(v) <- !best;
              changed := true
            end
          end
        done;
        !changed)
  in
  observe ~comb:true cc0 cc1 co;
  observe ~comb:false sc0 sc1 so;
  { cc0; cc1; co; sc0; sc1; so }

let worst_cc t v = max t.cc0.(v) t.cc1.(v)

let pp_node t v =
  let s x = if is_inf x then "inf" else string_of_int x in
  Printf.sprintf "cc0=%s cc1=%s co=%s sc0=%s sc1=%s so=%s" (s t.cc0.(v))
    (s t.cc1.(v)) (s t.co.(v)) (s t.sc0.(v)) (s t.sc1.(v)) (s t.so.(v))
