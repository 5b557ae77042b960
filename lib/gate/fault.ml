type t = { node : int; pin : int option; stuck : bool }

let to_string nl f =
  match f.pin with
  | None ->
    Printf.sprintf "%s/SA%d" (Netlist.node_name nl f.node)
      (if f.stuck then 1 else 0)
  | Some p ->
    Printf.sprintf "%s.in%d/SA%d" (Netlist.node_name nl f.node) p
      (if f.stuck then 1 else 0)

let universe nl =
  let acc = ref [] in
  for v = Netlist.n_nodes nl - 1 downto 0 do
    (match Netlist.kind nl v with
     | Netlist.Po | Netlist.Const0 | Netlist.Const1 -> ()
     | Netlist.Pi | Netlist.Dff | Netlist.Buf | Netlist.Not | Netlist.And
     | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor | Netlist.Xnor
     | Netlist.Mux2 ->
       acc := { node = v; pin = None; stuck = false }
              :: { node = v; pin = None; stuck = true } :: !acc);
    (* Branch faults on multi-fanout drivers. *)
    (match Netlist.kind nl v with
     | Netlist.Pi | Netlist.Const0 | Netlist.Const1 -> ()
     | Netlist.Po | Netlist.Dff | Netlist.Buf | Netlist.Not | Netlist.And
     | Netlist.Or | Netlist.Nand | Netlist.Nor | Netlist.Xor | Netlist.Xnor
     | Netlist.Mux2 ->
       Array.iteri
         (fun p driver ->
           if Array.length (Netlist.fanouts nl).(driver) > 1 then
             acc := { node = v; pin = Some p; stuck = false }
                    :: { node = v; pin = Some p; stuck = true } :: !acc)
         (Netlist.fanin nl v))
  done;
  !acc

let collapsed nl =
  List.filter
    (fun f ->
      match f.pin with
      | Some _ -> true
      | None ->
        (match Netlist.kind nl f.node with
         | Netlist.Buf ->
           (* Equivalent to the driver's stem fault. *)
           false
         | Netlist.Not ->
           (* Output faults kept; (input faults are not generated as
              stems anyway). *)
           true
         | Netlist.Pi | Netlist.Dff | Netlist.And | Netlist.Or | Netlist.Nand
         | Netlist.Nor | Netlist.Xor | Netlist.Xnor | Netlist.Mux2 -> true
         | Netlist.Po | Netlist.Const0 | Netlist.Const1 -> false))
    (universe nl)
