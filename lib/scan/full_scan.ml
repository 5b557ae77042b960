open Hft_gate

type result = {
  tests : (int * bool) list list;
  stats : Seq_atpg.stats;
}

(* Full scan makes every DFF a pseudo primary input (scan load) and its
   D input a pseudo primary output (scan capture): the circuit itself is
   a one-frame ATPG workspace.  With every source concretely assigned
   (PODEM's X positions filled with 0), the two-valued detection check
   is exact — no three-valued confirmation needed, unlike the
   sequential case. *)
let scan_view net =
  let dffs = Netlist.dffs net in
  {
    Seq_atpg.u_net = net;
    u_assignable = Netlist.pis net @ dffs;
    u_observe =
      Netlist.pos net @ List.map (fun d -> (Netlist.fanin net d).(0)) dffs;
    u_map_fault = (fun f -> [ f ]);
    u_origin = Hashtbl.create 1;
    u_frames = 1;
  }

let atpg ?(backtrack_limit = 500) ?strategy ?guidance ?on_par_stats ?jobs nl
    ~faults =
  Hft_obs.Span.with_ "full-scan-atpg"
    ~attrs:[ ("faults", string_of_int (List.length faults)) ]
  @@ fun () ->
  let tests = ref [] in
  let stats =
    Seq_atpg.campaign ~backtrack_limit ~min_frames:1 ~max_frames:1 ?strategy
      ~on_test:(fun _ assignment ~detects:_ -> tests := assignment :: !tests)
      ?guidance ?on_par_stats ?jobs
      ~view:(fun net _ -> scan_view net)
      ~detect:Fsim.detect_groups nl ~faults
  in
  { tests = List.rev !tests; stats }

let insert nl = Chain.insert nl (Netlist.dffs nl)
