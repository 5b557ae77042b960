open Hft_gate

type source = Lfsr_source | Arith_source

type block_report = {
  fu : int;
  n_gates : int;
  n_faults : int;
  coverage : (int * float) list;
  signature : int;
}

type report = { blocks : block_report list; total_coverage : float }

let default_checkpoints = [ 16; 64; 256; 1024 ]

(* A pattern source producing one bool per PI per pattern. *)
let make_source source ~seed ~n_pi =
  match source with
  | Lfsr_source ->
    let width = max 2 (min 24 (n_pi + 3)) in
    let l = Lfsr.create ~width ~seed in
    fun () ->
      let s = Lfsr.next l in
      Array.init n_pi (fun i -> s lsr (i mod width) land 1 = 1)
  | Arith_source ->
    let width = max 2 (min 24 (n_pi + 3)) in
    let g = Arith.create ~width ~seed ~increment:(2 * seed + 3) in
    fun () ->
      let s = Arith.next g in
      Array.init n_pi (fun i -> s lsr (i mod width) land 1 = 1)

let run_block ?(checkpoints = default_checkpoints) ~source ~seed ~width kinds =
  let blk = Expand.comb_block ~width kinds in
  let nl = blk.Expand.b_netlist in
  let faults = Fault.collapsed nl in
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.bist.blocks";
    Hft_obs.Registry.incr "hft.bist.block_faults" ~by:(List.length faults);
    Hft_obs.Registry.incr "hft.bist.patterns"
      ~by:(List.fold_left max 0 checkpoints)
  end;
  let n_pi = List.length (Netlist.pis nl) in
  let next_pattern = make_source source ~seed ~n_pi in
  let curve =
    match
      Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim (fun () ->
          Fsim.coverage_curve nl ~checkpoints ~next_pattern faults)
    with
    | Ok curve -> curve
    | Error _ ->
      (* Keep the block in the report (its faults still weigh the
         total) but with zero measured coverage. *)
      Hft_obs.Registry.incr "hft.robust.degraded";
      List.map (fun n -> (n, 0.0)) checkpoints
  in
  (* Signature: absorb the PO words of a fresh deterministic run. *)
  let next_pattern2 = make_source source ~seed ~n_pi in
  let sigwidth = max 2 (min 24 width) in
  let m = Misr.create ~width:sigwidth in
  let st = Sim.pcreate nl ~n_patterns:1 in
  for _ = 1 to 64 do
    let row = next_pattern2 () in
    List.iteri
      (fun i pi ->
        let v = Hft_util.Bitvec.create 1 in
        Hft_util.Bitvec.set v 0 row.(i);
        Sim.pset_pi st pi v)
      (Netlist.pis nl);
    Sim.peval nl st;
    let word =
      List.fold_left
        (fun acc po ->
          (acc lsl 1) lor (if Hft_util.Bitvec.get (Sim.pvalue st po) 0 then 1 else 0))
        0 (Netlist.pos nl)
    in
    Misr.absorb m word
  done;
  {
    fu = -1;
    n_gates = Netlist.n_gates nl;
    n_faults = List.length faults;
    coverage = curve;
    signature = Misr.signature m;
  }

let fu_kinds d f =
  List.sort_uniq compare
    (List.filter_map
       (fun (_, m) ->
         match m with
         | Hft_rtl.Datapath.Exec e when e.fu = f ->
           Some e.kind
         | Hft_rtl.Datapath.Exec _ | Hft_rtl.Datapath.Move _ -> None)
       d.Hft_rtl.Datapath.transfers)

let run ?(checkpoints = default_checkpoints) ~source ~seed d =
  Hft_obs.Span.with_ "bist-campaign"
    ~attrs:
      [ ("patterns",
         string_of_int
           (List.fold_left max 0 checkpoints)) ]
  @@ fun () ->
  let blocks =
    List.filter_map
      (fun f ->
        match fu_kinds d f with
        | [] -> None
        | kinds ->
          let r =
            run_block ~checkpoints ~source ~seed:(seed + f)
              ~width:d.Hft_rtl.Datapath.width kinds
          in
          Some { r with fu = f })
      (List.init (Hft_rtl.Datapath.n_fus d) (fun f -> f))
  in
  let weighted, total =
    List.fold_left
      (fun (acc, tot) b ->
        let final = match List.rev b.coverage with (_, c) :: _ -> c | [] -> 0.0 in
        (acc +. (final *. float_of_int b.n_faults), tot + b.n_faults))
      (0.0, 0) blocks
  in
  {
    blocks;
    total_coverage = (if total = 0 then 1.0 else weighted /. float_of_int total);
  }
