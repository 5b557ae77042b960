open Hft_cdfg
open Hft_rtl

type control_role =
  | Enable of int
  | Reg_leg of int * int
  | Fu_leg of int * int * int
  | Fn_sel of int * Op.kind

type t = {
  netlist : Netlist.t;
  width : int;
  reg_q : int array array;
  reg_d_src : int array array;
  data_pis : (string * int array) list;
  control_pis : (string * int) list;
  controls : (control_role * int) list;
  outputs : (string * int array) list;
}

type block = {
  b_netlist : Netlist.t;
  b_a : int array;
  b_b : int array;
  b_sel : (string * int) list;
  b_out : int array;
}

(* ------------------------------------------------------------------ *)
(* Word-level gate builders                                           *)
(* ------------------------------------------------------------------ *)

let add_gate = Netlist.add

(* Smart gate constructors with constant folding: arithmetic built over
   constant operands (carry-ins, multiplier partial-product padding,
   comparator padding) would otherwise leave redundant — hence
   untestable — gates in the netlist. *)
let is0 nl v = Netlist.kind nl v = Netlist.Const0
let is1 nl v = Netlist.kind nl v = Netlist.Const1
let const0 nl = add_gate nl Netlist.Const0 [||]
let const1 nl = add_gate nl Netlist.Const1 [||]

let rec mk_not nl a =
  if is0 nl a then const1 nl
  else if is1 nl a then const0 nl
  else add_gate nl Netlist.Not [| a |]

and mk_and nl a b =
  if is0 nl a || is0 nl b then const0 nl
  else if is1 nl a then b
  else if is1 nl b then a
  else add_gate nl Netlist.And [| a; b |]

and mk_or nl a b =
  if is1 nl a || is1 nl b then const1 nl
  else if is0 nl a then b
  else if is0 nl b then a
  else add_gate nl Netlist.Or [| a; b |]

and mk_xor nl a b =
  if is0 nl a then b
  else if is0 nl b then a
  else if is1 nl a then mk_not nl b
  else if is1 nl b then mk_not nl a
  else add_gate nl Netlist.Xor [| a; b |]

and mk_xnor nl a b =
  if is1 nl a then b
  else if is1 nl b then a
  else if is0 nl a then mk_not nl b
  else if is0 nl b then mk_not nl a
  else add_gate nl Netlist.Xnor [| a; b |]

let mk_mux nl s a b =
  if is0 nl s then a
  else if is1 nl s then b
  else if a = b then a
  else add_gate nl Netlist.Mux2 [| s; a; b |]

(* Full adder: returns (sum, carry); constant inputs fold away. *)
let full_adder nl a b c =
  let axb = mk_xor nl a b in
  let sum = mk_xor nl axb c in
  let ab = mk_and nl a b in
  let axb_c = mk_and nl axb c in
  let carry = mk_or nl ab axb_c in
  (sum, carry)

(* Sum bit only (no carry), for the most significant position when the
   carry-out is not consumed — dead carry gates would be untestable. *)
let sum_only nl a b c = mk_xor nl (mk_xor nl a b) c

(* Ripple-carry add of two words with carry-in node; returns
   (sum bits, carry-out, carry-into-msb).  With [need_cout:false] the
   final carry logic is not built and the returned carries alias the
   carry into the MSB. *)
let ripple_add ?(need_cout = true) nl a b cin =
  let w = Array.length a in
  let sums = Array.make w 0 in
  let carry = ref cin in
  let c_into_msb = ref cin in
  for i = 0 to w - 1 do
    if i = w - 1 then begin
      c_into_msb := !carry;
      if need_cout then begin
        let s, c = full_adder nl a.(i) b.(i) !carry in
        sums.(i) <- s;
        carry := c
      end
      else sums.(i) <- sum_only nl a.(i) b.(i) !carry
    end
    else begin
      let s, c = full_adder nl a.(i) b.(i) !carry in
      sums.(i) <- s;
      carry := c
    end
  done;
  (sums, !carry, !c_into_msb)

let word_not nl a = Array.map (fun bit -> mk_not nl bit) a

let adder nl a b =
  let zero = const0 nl in
  let sums, _, _ = ripple_add ~need_cout:false nl a b zero in
  sums

let subtractor nl a b =
  let one = const1 nl in
  let nb = word_not nl b in
  let sums, _, _ = ripple_add ~need_cout:false nl a nb one in
  sums

(* Carry of a + b + c without the sum gate. *)
let carry_only nl a b c =
  let axb = mk_xor nl a b in
  let ab = mk_and nl a b in
  let axb_c = mk_and nl axb c in
  mk_or nl ab axb_c

(* Signed a < b computed as N xor V of (a - b); only the carry chain
   and the MSB sum are materialised. *)
let less_than nl a b =
  let w = Array.length a in
  let one = const1 nl in
  let nb = word_not nl b in
  let carry = ref one in
  for i = 0 to w - 2 do
    carry := carry_only nl a.(i) nb.(i) !carry
  done;
  let cmsb = !carry in
  let n = sum_only nl a.(w - 1) nb.(w - 1) cmsb in
  let cout = carry_only nl a.(w - 1) nb.(w - 1) cmsb in
  let v = mk_xor nl cout cmsb in
  mk_xor nl n v

let equal_word nl a b =
  let w = Array.length a in
  let bits = Array.init w (fun i -> mk_xnor nl a.(i) b.(i)) in
  let rec reduce = function
    | [ x ] -> x
    | x :: y :: tl -> reduce (mk_and nl x y :: tl)
    | [] -> assert false
  in
  reduce (Array.to_list bits)

(* Array multiplier, low word of the product. *)
let multiplier nl a b =
  let w = Array.length a in
  let zero = const0 nl in
  (* Partial product rows, each shifted; accumulate with ripple adds. *)
  let acc = ref (Array.make w zero) in
  for j = 0 to w - 1 do
    let row =
      Array.init w (fun i -> if i < j then zero else mk_and nl a.(i - j) b.(j))
    in
    acc := adder nl !acc row
  done;
  !acc

let bitwise nl kind a b =
  let mk =
    match kind with
    | Netlist.And -> mk_and
    | Netlist.Or -> mk_or
    | Netlist.Xor -> mk_xor
    | _ -> fun nl a b -> add_gate nl kind [| a; b |]
  in
  Array.init (Array.length a) (fun i -> mk nl a.(i) b.(i))

(* One-bit result padded to a word. *)
let pad_bit nl bit w =
  let zero = add_gate nl Netlist.Const0 [||] in
  Array.init w (fun i -> if i = 0 then bit else zero)

let kind_result nl ~width a b = function
  | Op.Add -> adder nl a b
  | Op.Sub -> subtractor nl a b
  | Op.Mul -> multiplier nl a b
  | Op.Lt -> pad_bit nl (less_than nl a b) width
  | Op.Gt -> pad_bit nl (less_than nl b a) width
  | Op.Eq -> pad_bit nl (equal_word nl a b) width
  | Op.And -> bitwise nl Netlist.And a b
  | Op.Or -> bitwise nl Netlist.Or a b
  | Op.Xor -> bitwise nl Netlist.Xor a b
  | Op.Move -> a
  | Op.Shl | Op.Shr ->
    invalid_arg "Expand: variable shifts are not supported at gate level"

(* One-hot AND-OR selection of n words by n select bits. *)
let one_hot_select nl words sels =
  match (words, sels) with
  | [ w ], _ -> w
  | [], _ -> invalid_arg "Expand: empty selection"
  | words, sels ->
    let width = Array.length (List.hd words) in
    let masked =
      List.map2
        (fun word sel ->
          Array.init width (fun i -> mk_and nl word.(i) sel))
        words sels
    in
    List.fold_left
      (fun acc word ->
        Array.init width (fun i -> mk_or nl acc.(i) word.(i)))
      (List.hd masked) (List.tl masked)

let fu_block nl ~width ~kinds ~sel a b =
  match kinds with
  | [ k ] -> kind_result nl ~width a b k
  | kinds ->
    let words = List.map (fun k -> kind_result nl ~width a b k) kinds in
    one_hot_select nl words sel

(* ------------------------------------------------------------------ *)
(* Standalone combinational blocks                                    *)
(* ------------------------------------------------------------------ *)

let comb_block ~width kinds =
  if kinds = [] then invalid_arg "Expand.comb_block: no kinds";
  let nl = Netlist.create ~name:"block" () in
  let a =
    Array.init width (fun i -> add_gate nl ~name:(Printf.sprintf "a%d" i) Netlist.Pi [||])
  in
  let b =
    Array.init width (fun i -> add_gate nl ~name:(Printf.sprintf "b%d" i) Netlist.Pi [||])
  in
  let sel_named =
    if List.length kinds = 1 then []
    else
      List.map
        (fun k ->
          let name = Printf.sprintf "fn_%s" (Op.to_string k) in
          (name, add_gate nl ~name Netlist.Pi [||]))
        kinds
  in
  let out_val =
    fu_block nl ~width ~kinds ~sel:(List.map snd sel_named) a b
  in
  let out =
    Array.mapi
      (fun i v -> add_gate nl ~name:(Printf.sprintf "y%d" i) Netlist.Po [| v |])
      out_val
  in
  { b_netlist = nl; b_a = a; b_b = b; b_sel = sel_named; b_out = out }

let eval_block blk ~kind_index ~a ~b =
  let nl = blk.b_netlist in
  let st = Sim.pcreate nl ~n_patterns:1 in
  let set_word bits value =
    Array.iteri
      (fun i node ->
        let v = Hft_util.Bitvec.create 1 in
        Hft_util.Bitvec.set v 0 (value lsr i land 1 = 1);
        Sim.pset_pi st node v)
      bits
  in
  set_word blk.b_a a;
  set_word blk.b_b b;
  List.iteri
    (fun i (_, node) ->
      let v = Hft_util.Bitvec.create 1 in
      Hft_util.Bitvec.set v 0 (i = kind_index);
      Sim.pset_pi st node v)
    blk.b_sel;
  Sim.peval nl st;
  Array.to_list blk.b_out
  |> List.mapi (fun i po ->
         if Hft_util.Bitvec.get (Sim.pvalue st po) 0 then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Data-path expansion                                                *)
(* ------------------------------------------------------------------ *)

let reg_write_sources d r =
  List.filter_map
    (fun (_, m) ->
      match m with
      | Datapath.Move { src; dst } when dst = r -> Some (`S src)
      | Datapath.Exec e when e.dst = r -> Some (`F e.fu)
      | Datapath.Exec _ | Datapath.Move _ -> None)
    d.Datapath.transfers
  |> List.sort_uniq compare

let of_datapath d =
  let width = d.Datapath.width in
  let nl = Netlist.create ~name:(d.Datapath.name ^ "_gates") () in
  let control_pis = ref [] in
  let controls = ref [] in
  let control role name =
    let node = add_gate nl ~name Netlist.Pi [||] in
    control_pis := (name, node) :: !control_pis;
    controls := (role, node) :: !controls;
    node
  in
  (* Data PIs. *)
  let data_pis =
    Array.to_list d.Datapath.inports
    |> List.map (fun name ->
           ( name,
             Array.init width (fun i ->
                 add_gate nl ~name:(Printf.sprintf "%s[%d]" name i) Netlist.Pi
                   [||]) ))
  in
  (* Register DFFs are created first with a placeholder D input (the
     netlist is append-only but fanin arrays are exposed by reference),
     so the mux logic below can reference Q values; the real D nets are
     patched in before validation. *)
  let zero = add_gate nl ~name:"const0" Netlist.Const0 [||] in
  let reg_q =
    Array.map
      (fun r ->
        Array.init width (fun i ->
            add_gate nl
              ~name:(Printf.sprintf "%s[%d]" r.Datapath.r_name i)
              Netlist.Dff [| zero |]))
      d.Datapath.regs
  in
  let one = add_gate nl ~name:"const1" Netlist.Const1 [||] in
  let word_of_src = function
    | Datapath.Sreg r -> reg_q.(r)
    | Datapath.Sport p -> snd (List.nth data_pis p)
    | Datapath.Sconst c ->
      Array.init width (fun i -> if c lsr i land 1 = 1 then one else zero)
  in
  (* FU instances. *)
  let fu_out =
    Array.map
      (fun f ->
        let ports = Datapath.fu_port_sources d f.Datapath.f_id in
        let port_word p =
          match ports.(p) with
          | [] -> Array.make width zero (* unused port *)
          | [ s ] -> word_of_src s
          | sources ->
            let sels =
              List.mapi
                (fun i _ ->
                  control
                    (Fu_leg (f.Datapath.f_id, p, i))
                    (Printf.sprintf "sel_%s_p%d_leg%d" f.Datapath.f_name p i))
                sources
            in
            one_hot_select nl (List.map word_of_src sources) sels
        in
        let a = port_word 0 and b = port_word 1 in
        (* Op kinds executed by this instance. *)
        let kinds =
          List.sort_uniq compare
            (List.filter_map
               (fun (_, m) ->
                 match m with
                 | Datapath.Exec e when e.fu = f.Datapath.f_id -> Some e.kind
                 | Datapath.Exec _ | Datapath.Move _ -> None)
               d.Datapath.transfers)
        in
        match kinds with
        | [] -> Array.make width zero
        | kinds ->
          let sel =
            if List.length kinds = 1 then []
            else
              List.map
                (fun k ->
                  control
                    (Fn_sel (f.Datapath.f_id, k))
                    (Printf.sprintf "fn_%s_%s" f.Datapath.f_name (Op.to_string k)))
                kinds
          in
          fu_block nl ~width ~kinds ~sel a b)
      d.Datapath.fus
  in
  (* Register D inputs: one-hot select over write sources, gated by the
     enable. *)
  let reg_d_src =
    Array.map
      (fun r ->
        let rid = r.Datapath.r_id in
        let sources = reg_write_sources d rid in
        let words =
          List.map
            (function
              | `F fu -> fu_out.(fu)
              | `S src -> word_of_src src)
            sources
        in
        let newval =
          match words with
          | [] -> reg_q.(rid) (* never written: holds *)
          | [ w ] -> w
          | words ->
            let sels =
              List.mapi
                (fun i _ ->
                  control (Reg_leg (rid, i))
                    (Printf.sprintf "sel_%s_leg%d" r.Datapath.r_name i))
                words
            in
            one_hot_select nl words sels
        in
        let en = control (Enable rid) (Printf.sprintf "en_%s" r.Datapath.r_name) in
        Array.init width (fun i -> mk_mux nl en reg_q.(rid).(i) newval.(i)))
      d.Datapath.regs
  in
  (* Patch DFF fanins (append-only structure: mutate the fanin arrays
     in place — they are exposed by reference from [Netlist.fanin]). *)
  Array.iteri
    (fun rid bits ->
      Array.iteri
        (fun i dff -> Netlist.set_fanin nl dff 0 reg_d_src.(rid).(i))
        bits)
    reg_q;
  (* POs. *)
  let outputs =
    Array.to_list d.Datapath.outports
    |> List.map (fun (name, r) ->
           ( name,
             Array.init width (fun i ->
                 add_gate nl
                   ~name:(Printf.sprintf "%s[%d]" name i)
                   Netlist.Po
                   [| reg_q.(r).(i) |]) ))
  in
  Netlist.validate nl;
  {
    netlist = nl;
    width;
    reg_q;
    reg_d_src;
    data_pis;
    control_pis = List.rev !control_pis;
    controls = List.rev !controls;
    outputs;
  }

let reg_flops ex regs = List.concat_map (fun r -> Array.to_list ex.reg_q.(r)) regs

(* ------------------------------------------------------------------ *)
(* Functional driving of the expanded netlist                         *)
(* ------------------------------------------------------------------ *)

let leg_index sources s =
  let rec go i = function
    | [] -> invalid_arg "Expand.run_iteration: source not in mux fan-in"
    | x :: tl -> if x = s then i else go (i + 1) tl
  in
  go 0 sources

let roles_for_step d step =
  List.concat_map
    (fun (s, m) ->
      if s <> step then []
      else
        match m with
        | Datapath.Exec e ->
          let reg_legs = reg_write_sources d e.dst in
          let ports = Datapath.fu_port_sources d e.fu in
          (Enable e.dst
           ::
           (if List.length reg_legs > 1 then
              [ Reg_leg (e.dst, leg_index reg_legs (`F e.fu)) ]
            else []))
          @ (if List.length
                  (List.sort_uniq compare
                     (List.filter_map
                        (fun (_, m') ->
                          match m' with
                          | Datapath.Exec e' when e'.fu = e.fu -> Some e'.kind
                          | Datapath.Exec _ | Datapath.Move _ -> None)
                        d.Datapath.transfers))
               > 1
             then [ Fn_sel (e.fu, e.kind) ]
             else [])
          @ List.concat
              (Array.to_list
                 (Array.mapi
                    (fun p src ->
                      if List.length ports.(p) > 1 then
                        [ Fu_leg (e.fu, p, leg_index ports.(p) src) ]
                      else [])
                    e.srcs))
        | Datapath.Move { src; dst } ->
          let reg_legs = reg_write_sources d dst in
          Enable dst
          ::
          (if List.length reg_legs > 1 then
             [ Reg_leg (dst, leg_index reg_legs (`S src)) ]
           else []))
    d.Datapath.transfers

let run_iteration d ex ~inputs ?(state = []) () =
  let nl = ex.netlist in
  let st = Sim.pcreate nl ~n_patterns:1 in
  let set_node node b =
    let v = Hft_util.Bitvec.create 1 in
    Hft_util.Bitvec.set v 0 b;
    Sim.pset_pi st node v
  in
  (* Data inputs held constant through the iteration. *)
  List.iter
    (fun (name, value) ->
      match List.assoc_opt name ex.data_pis with
      | None -> ()
      | Some bits ->
        Array.iteri (fun i node -> set_node node (value lsr i land 1 = 1)) bits)
    inputs;
  (* Preset register state (by register name). *)
  List.iter
    (fun (rname, value) ->
      Array.iteri
        (fun rid r ->
          if r.Datapath.r_name = rname then
            Array.iteri
              (fun i dff ->
                let v = Hft_util.Bitvec.create 1 in
                Hft_util.Bitvec.set v 0 (value lsr i land 1 = 1);
                Sim.pset_state st dff v)
              ex.reg_q.(rid))
        d.Datapath.regs)
    state;
  (* Per-step one-hot control values derived from the transfer table. *)
  (* Per-step one-hot control values derived from the transfer table. *)
  let active_roles step = roles_for_step d step in
  for step = 0 to d.Datapath.n_steps do
    let active = active_roles step in
    List.iter
      (fun (role, node) -> set_node node (List.mem role active))
      ex.controls;
    Sim.peval nl st;
    Sim.pclock nl st
  done;
  (* Refresh combinational nodes (POs) from the final register state. *)
  Sim.peval nl st;
  List.map
    (fun (name, po_bits) ->
      let v =
        Array.to_list po_bits
        |> List.mapi (fun i po ->
               if Hft_util.Bitvec.get (Sim.pvalue st po) 0 then 1 lsl i else 0)
        |> List.fold_left ( + ) 0
      in
      (name, v))
    ex.outputs
