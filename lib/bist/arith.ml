open Hft_cdfg

type gen = { width : int; increment : int; mutable s : int }

let create ~width ~seed ~increment =
  let mask = (1 lsl width) - 1 in
  { width; increment = increment lor 1 (* odd: full period *) land mask;
    s = seed land mask }

let next g =
  g.s <- (g.s + g.increment) land ((1 lsl g.width) - 1);
  g.s

let subspace_coverage ~k pairs =
  if k <= 0 then invalid_arg "Arith.subspace_coverage";
  let mask = (1 lsl k) - 1 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (a, b) -> Hashtbl.replace seen (a land mask, b land mask) ())
    pairs;
  float_of_int (Hashtbl.length seen) /. float_of_int (1 lsl (2 * k))

(* Run the behaviour [samples] times on accumulator-driven inputs and
   collect each op's operand pairs. *)
let op_streams ~width ~samples ~seed g =
  let inputs = Graph.inputs g in
  let gens =
    List.mapi
      (fun i v ->
        (v.Graph.v_name, create ~width ~seed:(seed + (i * 97)) ~increment:(2 * i + 3)))
      inputs
  in
  let streams = Array.make (Graph.n_ops g) [] in
  for _ = 1 to samples do
    let ins = List.map (fun (n, gen) -> (n, next gen)) gens in
    let values = Graph.run ~width g ~inputs:ins () in
    Array.iteri
      (fun o { Graph.o_args; _ } ->
        let arg i =
          if Array.length o_args > i then List.assoc o_args.(i) values else 0
        in
        streams.(o) <- (arg 0, arg 1) :: streams.(o))
      (Array.init (Graph.n_ops g) (Graph.op g))
  done;
  Array.to_list (Array.mapi (fun o s -> (o, List.rev s)) streams)

let coverage_bind ~resources ~width ~samples ~seed g sched =
  let streams = op_streams ~width ~samples ~seed g in
  let k = min 3 width in
  let choose (partial : Hft_hls.Fu_bind.t) ~op ~candidates ~can_open =
    let my = List.assoc op streams in
    let gain inst =
      let _, members = partial.Hft_hls.Fu_bind.instances.(inst) in
      let union =
        List.concat_map (fun o -> List.assoc o streams) members @ my
      in
      subspace_coverage ~k union
    in
    let best =
      List.fold_left
        (fun acc inst ->
          match acc with
          | None -> Some (inst, gain inst)
          | Some (_, s) when gain inst > s -> Some (inst, gain inst)
          | Some _ -> acc)
        None candidates
    in
    match best with
    | Some (inst, s) ->
      (* Opening a fresh unit keeps this op's own coverage undiluted;
         prefer it when allowed and the shared coverage is poor. *)
      let own = subspace_coverage ~k my in
      if can_open && s < own *. 0.75 then `Open else `Use inst
    | None -> if can_open then `Open else `Use (List.hd candidates)
  in
  Hft_hls.Fu_bind.bind ~resources ~choose g sched

let compact ~width stream =
  let mask = (1 lsl width) - 1 in
  List.fold_left
    (fun acc word ->
      (* rotate-carry addition: the carry out re-enters at the LSB *)
      let sum = acc + (word land mask) in
      (sum + (sum lsr width)) land mask)
    0 stream
