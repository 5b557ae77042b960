open Hft_gate

type t = {
  netlist : Netlist.t;
  input_cells : (int * int) list;
  output_cells : (int * int) list;
  bs_shift : int;
  extest : int;
  bs_in : int;
  bs_out : int;
}

let insert nl =
  let pis = Netlist.pis nl in
  let pos = Netlist.pos nl in
  if pis = [] || pos = [] then invalid_arg "Boundary.insert: need PIs and POs";
  (* Consumers of each PI, snapshotted before any additions. *)
  let pi_sinks =
    let fanouts = Netlist.fanouts nl in
    List.map (fun p -> (p, fanouts.(p))) pis
  in
  let bs_shift = Netlist.add nl ~name:"bs_shift" Netlist.Pi [||] in
  let extest = Netlist.add nl ~name:"extest" Netlist.Pi [||] in
  let bs_in = Netlist.add nl ~name:"bs_in" Netlist.Pi [||] in
  let prev = ref bs_in in
  (* Input cells: sample the pin, hold during EXTEST, shift in shift
     mode; the core input is taken from the cell when EXTEST is on. *)
  let input_cells =
    List.map
      (fun (p, sinks) ->
        let zero = Netlist.add nl Netlist.Const0 [||] in
        let cell =
          Netlist.add nl
            ~name:(Printf.sprintf "bc_in_%s" (Netlist.node_name nl p))
            Netlist.Dff [| zero |]
        in
        let sample_or_hold = Netlist.add nl Netlist.Mux2 [| extest; p; cell |] in
        let d = Netlist.add nl Netlist.Mux2 [| bs_shift; sample_or_hold; !prev |] in
        Netlist.set_fanin nl cell 0 d;
        let core_in = Netlist.add nl Netlist.Mux2 [| extest; p; cell |] in
        Array.iter
          (fun w ->
            Array.iteri
              (fun pin src -> if src = p then Netlist.set_fanin nl w pin core_in)
              (Netlist.fanin nl w))
          sinks;
        prev := cell;
        (p, cell))
      pi_sinks
  in
  (* Output cells: capture the core's output drivers. *)
  let output_cells =
    List.map
      (fun po ->
        let driver = (Netlist.fanin nl po).(0) in
        let zero = Netlist.add nl Netlist.Const0 [||] in
        let cell =
          Netlist.add nl
            ~name:(Printf.sprintf "bc_out_%s" (Netlist.node_name nl po))
            Netlist.Dff [| zero |]
        in
        let d = Netlist.add nl Netlist.Mux2 [| bs_shift; driver; !prev |] in
        Netlist.set_fanin nl cell 0 d;
        prev := cell;
        (po, cell))
      pos
  in
  let bs_out = Netlist.add nl ~name:"bs_out" Netlist.Po [| !prev |] in
  Netlist.validate nl;
  { netlist = nl; input_cells; output_cells; bs_shift; extest; bs_in; bs_out }

let cells t = List.map snd t.input_cells @ List.map snd t.output_cells

(* One simulation step with the given pin values (assoc by node). *)
let mk_state t = Sim.pcreate t.netlist ~n_patterns:1

let set st node b =
  let v = Hft_util.Bitvec.create 1 in
  Hft_util.Bitvec.set v 0 b;
  Sim.pset_pi st node v

let step t st ~shift ~ext ~scan_bit ~pins =
  let nl = t.netlist in
  List.iter
    (fun p ->
      if p <> t.bs_shift && p <> t.extest && p <> t.bs_in then
        set st p (try List.assq p pins with Not_found -> false))
    (Netlist.pis nl);
  set st t.bs_shift shift;
  set st t.extest ext;
  set st t.bs_in scan_bit;
  Sim.peval nl st;
  let out =
    Hft_util.Bitvec.get (Sim.pvalue st t.bs_out) 0
  in
  Sim.pclock nl st;
  out

let verify_shift t =
  let st = mk_state t in
  let len = List.length (cells t) in
  let sequence = List.init (2 * len) (fun i -> i mod 3 = 1) in
  let outs =
    List.map (fun bit -> step t st ~shift:true ~ext:false ~scan_bit:bit ~pins:[])
      sequence
  in
  (* Bit i emerges at cycle i + len. *)
  List.for_all2
    (fun i bit -> List.nth outs (i + len) = bit)
    (List.init len (fun i -> i))
    (List.filteri (fun i _ -> i < len) sequence)

let extest_roundtrip t ~inputs =
  let n_in = List.length t.input_cells in
  let n_out = List.length t.output_cells in
  if List.length inputs <> n_in then
    invalid_arg "Boundary.extest_roundtrip: one bit per input cell";
  let st = mk_state t in
  (* Full chain load: input-cell values followed by don't-cares for the
     output cells; first bit shifted in ends at the chain's far end
     (the last output cell), so feed the reversed chain image. *)
  let chain_image = inputs @ List.init n_out (fun _ -> false) in
  List.iter
    (fun bit -> ignore (step t st ~shift:true ~ext:false ~scan_bit:bit ~pins:[]))
    (List.rev chain_image);
  (* One EXTEST capture cycle: pins driven to the complement of each
     cell value, proving the cells drive the core. *)
  let pins =
    List.map2 (fun (p, _) v -> (p, not v)) t.input_cells inputs
  in
  ignore (step t st ~shift:false ~ext:true ~scan_bit:false ~pins);
  (* Shift out: each shift step returns bs_out before its clock edge,
     so the first read is the last output cell's captured value. *)
  let reads =
    List.init n_out (fun _ ->
        step t st ~shift:true ~ext:false ~scan_bit:false ~pins:[])
  in
  List.rev reads
