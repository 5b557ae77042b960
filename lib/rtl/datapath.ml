type reg_kind =
  | Plain
  | Scan
  | Transparent_scan
  | Tpgr
  | Sr
  | Bilbo
  | Cbilbo

type reg = {
  r_id : int;
  r_name : string;
  mutable r_kind : reg_kind;
  r_vars : int list;
}

type fu = {
  f_id : int;
  f_name : string;
  f_class : Hft_cdfg.Op.fu_class;
  f_ops : int list;
}

type src = Sreg of int | Sport of int | Sconst of int

type micro =
  | Exec of { op : int; kind : Hft_cdfg.Op.kind; fu : int; srcs : src array; dst : int }
  | Move of { src : src; dst : int }

type t = {
  name : string;
  width : int;
  regs : reg array;
  fus : fu array;
  inports : string array;
  outports : (string * int) array;
  transfers : (int * micro) list;
  n_steps : int;
}

let n_regs d = Array.length d.regs
let n_fus d = Array.length d.fus

let fu_port_sources d f =
  let ports = Array.make 2 [] in
  List.iter
    (fun (_, m) ->
      match m with
      | Exec e when e.fu = f ->
        Array.iteri
          (fun p s -> if not (List.mem s ports.(p)) then ports.(p) <- s :: ports.(p))
          e.srcs
      | Exec _ | Move _ -> ())
    d.transfers;
  Array.map List.rev ports

let fu_input_regs d f =
  Array.to_list (fu_port_sources d f)
  |> List.concat
  |> List.filter_map (function Sreg r -> Some r | Sport _ | Sconst _ -> None)
  |> List.sort_uniq compare

let fu_output_regs d f =
  List.filter_map
    (fun (_, m) ->
      match m with
      | Exec e when e.fu = f -> Some e.dst
      | Exec _ | Move _ -> None)
    d.transfers
  |> List.sort_uniq compare

let reg_sources d r =
  List.filter_map
    (fun (_, m) ->
      match m with
      | Move { src; dst } when dst = r -> Some src
      | Exec _ | Move _ -> None)
    d.transfers
  |> List.sort_uniq compare

let reg_of_var d v =
  let found = ref None in
  Array.iter (fun r -> if List.mem v r.r_vars then found := Some r.r_id) d.regs;
  !found

let fu_of_op d o =
  let found = ref None in
  Array.iter (fun f -> if List.mem o f.f_ops then found := Some f.f_id) d.fus;
  !found

let input_registers d =
  (* Registers loadable from a primary input port, via moves or as a
     direct Exec source would not count: input register = register with
     a port among its write sources. *)
  Array.to_list d.regs
  |> List.filter_map (fun r ->
         let from_port =
           List.exists
             (fun (_, m) ->
               match m with
               | Move { src = Sport _; dst } -> dst = r.r_id
               | Exec _ | Move _ -> false)
             d.transfers
         in
         if from_port then Some r.r_id else None)

let output_registers d =
  Array.to_list d.outports |> List.map snd |> List.sort_uniq compare

let self_adjacent_regs d =
  let n = n_fus d in
  let acc = ref [] in
  for f = 0 to n - 1 do
    let ins = fu_input_regs d f and outs = fu_output_regs d f in
    List.iter (fun r -> if List.mem r ins && not (List.mem r !acc) then acc := r :: !acc) outs
  done;
  List.sort compare !acc

let mux_legs d =
  let count sources = max 0 (List.length sources - 1) in
  let fu_legs =
    Array.to_list d.fus
    |> List.map (fun f ->
           Array.to_list (fu_port_sources d f.f_id)
           |> List.map count |> List.fold_left ( + ) 0)
    |> List.fold_left ( + ) 0
  in
  let reg_write_sources r =
    (* All distinct sources writing register r: moves and FU outputs. *)
    List.filter_map
      (fun (_, m) ->
        match m with
        | Move { src; dst } when dst = r -> Some (`S src)
        | Exec e when e.dst = r -> Some (`F e.fu)
        | Exec _ | Move _ -> None)
      d.transfers
    |> List.sort_uniq compare
  in
  let reg_legs =
    Array.to_list d.regs
    |> List.map (fun r -> count (reg_write_sources r.r_id))
    |> List.fold_left ( + ) 0
  in
  fu_legs + reg_legs

let validate d =
  let check_reg r ctx =
    if r < 0 || r >= n_regs d then
      invalid_arg (Printf.sprintf "Datapath.validate: bad register in %s" ctx)
  in
  let check_src s ctx =
    match s with
    | Sreg r -> check_reg r ctx
    | Sport p ->
      if p < 0 || p >= Array.length d.inports then
        invalid_arg (Printf.sprintf "Datapath.validate: bad port in %s" ctx)
    | Sconst _ -> ()
  in
  Array.iter (fun (_, r) -> check_reg r "outport") d.outports;
  let writes = Hashtbl.create 16 in
  let fu_busy = Hashtbl.create 16 in
  List.iter
    (fun (step, m) ->
      if step < 0 || step > d.n_steps then
        invalid_arg "Datapath.validate: step out of range";
      match m with
      | Exec e ->
        if e.fu < 0 || e.fu >= n_fus d then
          invalid_arg "Datapath.validate: bad fu";
        check_reg e.dst "exec dst";
        Array.iter (fun s -> check_src s "exec src") e.srcs;
        if Hashtbl.mem fu_busy (step, e.fu) then
          invalid_arg
            (Printf.sprintf "Datapath.validate: fu %d double-booked at step %d"
               e.fu step);
        Hashtbl.add fu_busy (step, e.fu) ();
        if Hashtbl.mem writes (step, e.dst) then
          invalid_arg
            (Printf.sprintf
               "Datapath.validate: register %d written twice at step %d" e.dst
               step);
        Hashtbl.add writes (step, e.dst) ()
      | Move { src; dst } ->
        check_src src "move src";
        check_reg dst "move dst";
        if Hashtbl.mem writes (step, dst) then
          invalid_arg
            (Printf.sprintf
               "Datapath.validate: register %d written twice at step %d" dst
               step);
        Hashtbl.add writes (step, dst) ())
    d.transfers

let simulate d ~inputs ?(state = []) () =
  let regs = Array.make (n_regs d) 0 in
  List.iter
    (fun (name, v) ->
      Array.iter (fun r -> if r.r_name = name then regs.(r.r_id) <- v) d.regs)
    state;
  let port_val p =
    let name = d.inports.(p) in
    match List.assoc_opt name inputs with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Datapath.simulate: missing input %s" name)
  in
  let read = function
    | Sreg r -> regs.(r)
    | Sport p -> port_val p
    | Sconst c -> c
  in
  for step = 0 to d.n_steps do
    (* All reads happen before the end-of-step writes (edge-triggered). *)
    let pending =
      List.filter_map
        (fun (s, m) ->
          if s <> step then None
          else
            match m with
            | Exec e ->
              let args = Array.to_list (Array.map read e.srcs) in
              Some (e.dst, Hft_cdfg.Op.eval ~width:d.width e.kind args)
            | Move { src; dst } -> Some (dst, read src))
        d.transfers
    in
    List.iter (fun (dst, v) -> regs.(dst) <- v) pending
  done;
  let outs =
    Array.to_list d.outports |> List.map (fun (name, r) -> (name, regs.(r)))
  in
  (outs, Array.to_list (Array.mapi (fun i v -> (i, v)) regs))

let reg_kind_to_string = function
  | Plain -> "reg"
  | Scan -> "scan"
  | Transparent_scan -> "tscan"
  | Tpgr -> "tpgr"
  | Sr -> "sr"
  | Bilbo -> "bilbo"
  | Cbilbo -> "cbilbo"

let src_to_string d = function
  | Sreg r -> d.regs.(r).r_name
  | Sport p -> "@" ^ d.inports.(p)
  | Sconst c -> string_of_int c

let pp d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "datapath %s: %d regs, %d fus, %d steps\n" d.name
       (n_regs d) (n_fus d) d.n_steps);
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [%s] holds {%s}\n" r.r_name
           (reg_kind_to_string r.r_kind)
           (String.concat "," (List.map string_of_int r.r_vars))))
    d.regs;
  Array.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  %s (%s) ops {%s}\n" f.f_name
           (Hft_cdfg.Op.fu_class_to_string f.f_class)
           (String.concat "," (List.map string_of_int f.f_ops))))
    d.fus;
  List.iter
    (fun (step, m) ->
      match m with
      | Exec e ->
        Buffer.add_string buf
          (Printf.sprintf "  step %d: %s <- %s(%s)\n" step
             d.regs.(e.dst).r_name d.fus.(e.fu).f_name
             (String.concat ", "
                (Array.to_list (Array.map (src_to_string d) e.srcs))))
      | Move { src; dst } ->
        Buffer.add_string buf
          (Printf.sprintf "  step %d: %s <- %s\n" step d.regs.(dst).r_name
             (src_to_string d src)))
    (List.sort compare d.transfers);
  Buffer.contents buf

let to_dot d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  rankdir=TB;\n" d.name);
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  r%d [label=\"%s\\n%s\" shape=box];\n" r.r_id
           r.r_name (reg_kind_to_string r.r_kind)))
    d.regs;
  Array.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  f%d [label=\"%s\" shape=trapezium];\n" f.f_id f.f_name))
    d.fus;
  Array.iter
    (fun f ->
      List.iter
        (fun r -> Buffer.add_string buf (Printf.sprintf "  r%d -> f%d;\n" r f.f_id))
        (fu_input_regs d f.f_id);
      List.iter
        (fun r -> Buffer.add_string buf (Printf.sprintf "  f%d -> r%d;\n" f.f_id r))
        (fu_output_regs d f.f_id))
    d.fus;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
