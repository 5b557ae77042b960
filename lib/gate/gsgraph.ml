open Hft_util

type t = { graph : Digraph.t; dff_ids : int array }

let of_netlist nl =
  let dffs = Array.of_list (Netlist.dffs nl) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i d -> Hashtbl.replace index d i) dffs;
  let g = Digraph.create (Array.length dffs) in
  (* From each DFF output, BFS forward through combinational nodes; a
     reached DFF means its D cone includes this FF. *)
  Array.iteri
    (fun i d ->
      let seen = Array.make (Netlist.n_nodes nl) false in
      let q = Queue.create () in
      Queue.add d q;
      while not (Queue.is_empty q) do
        let v = Queue.take q in
        List.iter
          (fun w ->
            (* A reached DFF closes an S-graph edge (self-loops
               included); only combinational nodes are traversed. *)
            match Netlist.kind nl w with
            | Netlist.Dff -> Digraph.add_edge g i (Hashtbl.find index w)
            | _ ->
              if not seen.(w) then begin
                seen.(w) <- true;
                Queue.add w q
              end)
          (Netlist.fanout nl v)
      done)
    dffs;
  { graph = g; dff_ids = dffs }

let scan_selection ?(ignore_self_loops = true) t =
  Mfvs.greedy ~ignore_self_loops t.graph
  |> List.map (fun v -> t.dff_ids.(v))

let n_loops ?(max_len = 12) ?(max_count = 4096) t =
  Digraph.count_cycles t.graph ~min_len:1 ~max_len ~max_count

let sequential_depth t =
  (* Longest shortest path between any pair of FFs. *)
  let n = Digraph.order t.graph in
  let best = ref 0 in
  for v = 0 to n - 1 do
    let dist = Digraph.bfs_dist t.graph v in
    Array.iter (fun x -> if x < max_int && x > !best then best := x) dist
  done;
  !best
