open Hft_rtl

type role = R_none | R_tpgr | R_sr | R_bilbo | R_cbilbo

type plan = {
  roles : role array;
  sr_of_fu : int array;
  n_tpgr : int;
  n_sr : int;
  n_bilbo : int;
  n_cbilbo : int;
}

let plan d =
  let n = Datapath.n_regs d in
  let needs_tpgr = Array.make n false in
  let sr_blocks = Array.make n [] in (* fu ids the register serves as SR *)
  let tpgr_blocks = Array.make n [] in
  let sr_of_fu = Array.make (Datapath.n_fus d) (-1) in
  for f = 0 to Datapath.n_fus d - 1 do
    let ins = Datapath.fu_input_regs d f in
    let outs = Datapath.fu_output_regs d f in
    List.iter
      (fun r ->
        needs_tpgr.(r) <- true;
        tpgr_blocks.(r) <- f :: tpgr_blocks.(r))
      ins;
    (* SR: prefer an output register that is not an input of the same
       block. *)
    match outs with
    | [] -> () (* unused unit: nothing to observe *)
    | outs ->
      let clean = List.filter (fun r -> not (List.mem r ins)) outs in
      let sr = match clean with r :: _ -> r | [] -> List.hd outs in
      sr_of_fu.(f) <- sr;
      sr_blocks.(sr) <- f :: sr_blocks.(sr)
  done;
  let roles =
    Array.init n (fun r ->
        let tp = needs_tpgr.(r) and srb = sr_blocks.(r) in
        match (tp, srb) with
        | false, [] -> R_none
        | true, [] -> R_tpgr
        | false, _ -> R_sr
        | true, _ ->
          (* Both roles.  CBILBO only when some block uses it as TPGR
             and SR simultaneously (it is both an input and the chosen
             SR of that block). *)
          let concurrent =
            List.exists (fun f -> List.mem f tpgr_blocks.(r)) srb
          in
          if concurrent then R_cbilbo else R_bilbo)
  in
  let count x = Array.fold_left (fun a r -> if r = x then a + 1 else a) 0 roles in
  {
    roles;
    sr_of_fu;
    n_tpgr = count R_tpgr;
    n_sr = count R_sr;
    n_bilbo = count R_bilbo;
    n_cbilbo = count R_cbilbo;
  }

let annotate d p =
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.bist.plans";
    Hft_obs.Registry.incr "hft.bist.tpgr" ~by:p.n_tpgr;
    Hft_obs.Registry.incr "hft.bist.sr" ~by:p.n_sr;
    Hft_obs.Registry.incr "hft.bist.bilbo" ~by:p.n_bilbo;
    Hft_obs.Registry.incr "hft.bist.cbilbo" ~by:p.n_cbilbo
  end;
  Array.iteri
    (fun r role ->
      let kind =
        match role with
        | R_none -> Datapath.Plain
        | R_tpgr -> Datapath.Tpgr
        | R_sr -> Datapath.Sr
        | R_bilbo -> Datapath.Bilbo
        | R_cbilbo -> Datapath.Cbilbo
      in
      d.Datapath.regs.(r).Datapath.r_kind <- kind)
    p.roles

let area_overhead d p =
  let saved = Array.map (fun r -> r.Datapath.r_kind) d.Datapath.regs in
  Array.iter (fun r -> r.Datapath.r_kind <- Datapath.Plain) d.Datapath.regs;
  let base = Area.datapath_area d in
  annotate d p;
  let with_bist = Area.datapath_area d in
  Array.iteri (fun i r -> r.Datapath.r_kind <- saved.(i)) d.Datapath.regs;
  (with_bist -. base) /. base
