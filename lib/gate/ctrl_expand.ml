open Hft_rtl

type t = {
  expansion : Expand.t;
  netlist : Netlist.t;
  reset : int;
  test_mode : int;
  test_sel : int list;
  state_bits : int list;
  assignable : int list;
  n_datapath_nodes : int;
}

let mk_or_list nl = function
  | [] -> Netlist.add nl Netlist.Const0 [||]
  | [ x ] -> x
  | x :: tl -> List.fold_left (fun acc y -> Netlist.add nl Netlist.Or [| acc; y |]) x tl

(* Is [role] asserted by controller test vector [tv]? *)
let role_in_vector tv role =
  match role with
  | Expand.Enable r -> Controller.value tv (Controller.Reg_enable r) = 1
  | Expand.Reg_leg (r, leg) ->
    Controller.value tv (Controller.Reg_select r) = leg
    && Controller.value tv (Controller.Reg_enable r) = 1
  | Expand.Fu_leg (f, p, leg) ->
    Controller.value tv (Controller.Fu_select (f, p)) = leg
  | Expand.Fn_sel _ -> false (* not part of the controller's vocabulary *)

let compose d (c : Controller.t) =
  let ex = Expand.of_datapath d in
  let nl = ex.Expand.netlist in
  let n_datapath_nodes = Netlist.n_nodes nl in
  (* Snapshot control-line consumers before adding controller logic. *)
  let sinks =
    let fanouts = Netlist.fanouts nl in
    List.map (fun (role, pi) -> (role, pi, fanouts.(pi))) ex.Expand.controls
  in
  let n_states = d.Datapath.n_steps + 1 in
  let reset = Netlist.add nl ~name:"reset" Netlist.Pi [||] in
  let test_mode = Netlist.add nl ~name:"test_mode" Netlist.Pi [||] in
  let nreset = Netlist.add nl Netlist.Not [| reset |] in
  (* One-hot state register; D nets patched after all bits exist. *)
  let zero = Netlist.add nl Netlist.Const0 [||] in
  let state_bits =
    List.init n_states (fun i ->
        Netlist.add nl ~name:(Printf.sprintf "fsm_s%d" i) Netlist.Dff [| zero |])
  in
  let state = Array.of_list state_bits in
  List.iteri
    (fun i dff ->
      let prev = state.((i + n_states - 1) mod n_states) in
      let walk = Netlist.add nl Netlist.And [| nreset; prev |] in
      let d_net =
        if i = 0 then Netlist.add nl Netlist.Or [| reset; walk |] else walk
      in
      Netlist.set_fanin nl dff 0 d_net)
    state_bits;
  (* Test-vector selection inputs (one-hot). *)
  let test_sel =
    List.mapi
      (fun j _ -> Netlist.add nl ~name:(Printf.sprintf "test_sel%d" j) Netlist.Pi [||])
      c.Controller.test_vectors
  in
  (* Fn_sel roles keep direct access in test mode through free PIs. *)
  let fn_free = Hashtbl.create 4 in
  let extra_pis = ref [] in
  let line_for role =
    let active_states =
      List.filteri (fun s _ -> List.mem role (Expand.roles_for_step d s))
        state_bits
    in
    let functional = mk_or_list nl active_states in
    let test_term =
      match role with
      | Expand.Fn_sel _ ->
        let pi =
          match Hashtbl.find_opt fn_free role with
          | Some pi -> pi
          | None ->
            let pi = Netlist.add nl ~name:"fn_test" Netlist.Pi [||] in
            Hashtbl.replace fn_free role pi;
            extra_pis := pi :: !extra_pis;
            pi
        in
        Some pi
      | Expand.Enable _ | Expand.Reg_leg _ | Expand.Fu_leg _ ->
        let terms =
          List.filteri
            (fun j _ -> role_in_vector (List.nth c.Controller.test_vectors j) role)
            test_sel
        in
        if terms = [] then None else Some (mk_or_list nl terms)
    in
    match test_term with
    | None ->
      (* No test freedom for this line: gated by not-test-mode. *)
      let ntm = Netlist.add nl Netlist.Not [| test_mode |] in
      Netlist.add nl Netlist.And [| ntm; functional |]
    | Some t -> Netlist.add nl Netlist.Mux2 [| test_mode; functional; t |]
  in
  (* Rewire every control consumer onto the decoded line. *)
  List.iter
    (fun (role, pi, consumers) ->
      let line = line_for role in
      Array.iter
        (fun w ->
          Array.iteri
            (fun pin src -> if src = pi then Netlist.set_fanin nl w pin line)
            (Netlist.fanin nl w))
        consumers)
    sinks;
  Netlist.validate nl;
  let control_set = List.map snd ex.Expand.controls in
  let assignable =
    List.filter (fun p -> not (List.mem p control_set)) (Netlist.pis nl)
  in
  { expansion = ex; netlist = nl; reset; test_mode; test_sel; state_bits;
    assignable; n_datapath_nodes }

let atpg ?(backtrack_limit = 50) ?(max_frames = 4) t ~faults =
  (* Restrict assignability to the composite's real inputs: the
     disconnected control PIs stay at X and influence nothing.  Shorter
     unrolls are pointless — the FSM needs a reset plus its full walk —
     so attempt directly at the deepest frame count. *)
  Seq_atpg.run ~backtrack_limit ~min_frames:max_frames ~max_frames
    ~assignable_pis:t.assignable
    ~strapped:(t.test_mode :: t.test_sel)
    t.netlist ~faults ~scanned:[]
