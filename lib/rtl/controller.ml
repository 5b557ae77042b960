type signal =
  | Reg_enable of int
  | Fu_select of int * int
  | Reg_select of int

type vector = (signal * int) list

type t = {
  n_states : int;
  signals : signal list;
  vectors : vector array;
  test_vectors : vector list;
}

let value vec s = match List.assoc_opt s vec with Some v -> v | None -> 0

(* Mux leg index of a source at an FU port / register input; legs are
   numbered by the canonical source order the datapath reports. *)
let leg_index sources s =
  let rec go i = function
    | [] -> invalid_arg "Controller: source not in mux fan-in"
    | x :: tl -> if x = s then i else go (i + 1) tl
  in
  go 0 sources

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
  let signals =
    let regs = Array.to_list d.Datapath.regs in
    let enables = List.map (fun r -> Reg_enable r.Datapath.r_id) regs in
    let reg_sels =
      List.filter_map
        (fun r ->
          if List.length (reg_write_sources d r.Datapath.r_id) > 1 then
            Some (Reg_select r.Datapath.r_id)
          else None)
        regs
    in
    let fu_sels =
      Array.to_list d.Datapath.fus
      |> List.concat_map (fun f ->
             let ports = Datapath.fu_port_sources d f.Datapath.f_id in
             List.filter_map
               (fun p ->
                 if List.length ports.(p) > 1 then
                   Some (Fu_select (f.Datapath.f_id, p))
                 else None)
               [ 0; 1 ])
    in
    enables @ reg_sels @ fu_sels
  in
  let vectors =
    Array.init (d.Datapath.n_steps + 1) (fun step ->
        let vec = ref [] in
        let put s v =
          if List.assoc_opt s !vec = None then vec := (s, v) :: !vec
        in
        List.iter
          (fun (s, m) ->
            if s = step then
              match m with
              | Datapath.Exec e ->
                put (Reg_enable e.dst) 1;
                let srcs = reg_write_sources d e.dst in
                if List.length srcs > 1 then
                  put (Reg_select e.dst)
                    (leg_index srcs (`F e.fu));
                let ports = Datapath.fu_port_sources d e.fu in
                Array.iteri
                  (fun p src ->
                    if List.length ports.(p) > 1 then
                      put (Fu_select (e.fu, p)) (leg_index ports.(p) src))
                  e.srcs
              | Datapath.Move { src; dst } ->
                put (Reg_enable dst) 1;
                let srcs = reg_write_sources d dst in
                if List.length srcs > 1 then
                  put (Reg_select dst) (leg_index srcs (`S src)))
          d.Datapath.transfers;
        !vec)
  in
  { n_states = d.Datapath.n_steps + 1; signals; vectors; test_vectors = [] }

let all_vectors c = Array.to_list c.vectors @ c.test_vectors

(* Domain of a signal: enables are 0/1; select fields range over the
   values seen plus 0. *)
let domain c s =
  match s with
  | Reg_enable _ -> [ 0; 1 ]
  | Reg_select _ | Fu_select _ ->
    List.map (fun v -> value v s) (all_vectors c)
    |> List.cons 0 |> List.sort_uniq compare

let unreachable_values c =
  let vs = all_vectors c in
  List.concat_map
    (fun s ->
      List.filter_map
        (fun dv ->
          if List.exists (fun vec -> value vec s = dv) vs then None
          else Some (s, dv))
        (domain c s))
    c.signals

let implications c =
  let vs = all_vectors c in
  let atoms =
    List.concat_map (fun s -> List.map (fun v -> (s, v)) (domain c s)) c.signals
  in
  List.concat_map
    (fun (s1, v1) ->
      let support = List.filter (fun vec -> value vec s1 = v1) vs in
      if support = [] then []
      else
        List.filter_map
          (fun (s2, v2) ->
            if s1 = s2 then None
            else if List.for_all (fun vec -> value vec s2 = v2) support then
              Some ((s1, v1), (s2, v2))
            else None)
          atoms)
    atoms

let add_test_vectors c vs = { c with test_vectors = c.test_vectors @ vs }

let n_vectors c =
  let canon vec =
    List.map (fun s -> value vec s) c.signals
  in
  List.map canon (all_vectors c) |> List.sort_uniq compare |> List.length
