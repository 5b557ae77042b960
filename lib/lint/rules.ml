open Hft_rtl
open Hft_gate
module Scoap = Hft_analysis.Scoap

type config = {
  cc_threshold : int;
  co_threshold : int;
  rtl_threshold : int;
  max_loop_len : int;
  max_loop_count : int;
  max_per_rule : int;
}

let default =
  {
    cc_threshold = 250;
    co_threshold = 500;
    rtl_threshold = 8;
    max_loop_len = 8;
    max_loop_count = 64;
    max_per_rule = 20;
  }

type ctx = {
  datapath : Datapath.t;
  graph : Hft_cdfg.Graph.t option;
  sgraph : Sgraph.t lazy_t;
  expand : Expand.t lazy_t;
  scoap : Scoap.t lazy_t;
}

let ctx ?graph datapath =
  let sgraph = lazy (Sgraph.of_datapath datapath) in
  let expand = lazy (Expand.of_datapath datapath) in
  let scoap =
    lazy (Scoap.analyze (Lazy.force expand).Expand.netlist)
  in
  { datapath; graph; sgraph; expand; scoap }

let reg_kind d r = d.Datapath.regs.(r).Datapath.r_kind

let reg_name d r = d.Datapath.regs.(r).Datapath.r_name

(* Scan and BIST registers alike give the tester a direct handle on
   the state they hold, so either breaks an assignment loop for test
   purposes. *)
let is_access_kind = function
  | Datapath.Scan | Datapath.Transparent_scan | Datapath.Tpgr | Datapath.Sr
  | Datapath.Bilbo | Datapath.Cbilbo -> true
  | Datapath.Plain -> false

let access_regs d =
  List.init (Datapath.n_regs d) Fun.id
  |> List.filter (fun r -> is_access_kind (reg_kind d r))

let scanned_regs d =
  List.init (Datapath.n_regs d) Fun.id
  |> List.filter (fun r ->
         match reg_kind d r with
         | Datapath.Scan | Datapath.Transparent_scan -> true
         | _ -> false)

(* ------------------------------------------------------------------ *)
(* HFT-L001: assignment loops without a test access point             *)
(* ------------------------------------------------------------------ *)

let l001_assignment_loops cfg ctx =
  let d = ctx.datapath in
  let s = Lazy.force ctx.sgraph in
  let loops =
    Sgraph.nontrivial_loops ~max_len:cfg.max_loop_len
      ~max_count:cfg.max_loop_count s
  in
  let unbroken =
    List.filter
      (fun l -> not (List.exists (fun r -> is_access_kind (reg_kind d r)) l))
      loops
  in
  (* Suggest breakers: a feedback set of the unbroken part of the graph. *)
  let suggestion =
    lazy
      (let g' = Hft_util.Digraph.copy s.Sgraph.graph in
       List.iter (fun r -> Hft_util.Digraph.detach g' r) (access_regs d);
       Hft_util.Mfvs.greedy ~ignore_self_loops:true g')
  in
  List.map
    (fun l ->
      let break_with =
        match List.filter (fun r -> List.mem r l) (Lazy.force suggestion) with
        | r :: _ -> r
        | [] -> List.hd l
      in
      Diagnostic.make ~code:"HFT-L001" ~severity:Diagnostic.Error
        ~loc:(Diagnostic.Loop l)
        (Printf.sprintf
           "assignment loop %s has no scanned or BIST register; scanning %s \
            would break it"
           (String.concat " -> " (List.map (reg_name d) l))
           (reg_name d break_with)))
    unbroken

(* ------------------------------------------------------------------ *)
(* HFT-L002: unbounded / unattainable RTL control and observe ranges  *)
(* ------------------------------------------------------------------ *)

let l002_rtl_ranges cfg ctx =
  let d = ctx.datapath in
  let s = Lazy.force ctx.sgraph in
  let scanned = scanned_regs d in
  let reports = Testability.analyze ~scanned s in
  List.filter_map
    (fun (r : Testability.node_report) ->
      if List.mem r.Testability.reg scanned then None
      else
        let describe what (rg : Testability.range) =
          match (rg.Testability.min_cycles, rg.Testability.max_cycles) with
          | None, _ -> Some (Printf.sprintf "cannot be %sed" what)
          | Some m, _ when m > cfg.rtl_threshold ->
            Some (Printf.sprintf "needs %d cycles to %s" m what)
          | _, None -> Some (Printf.sprintf "unbounded %s range" what)
          | Some _, Some _ -> None
        in
        let parts =
          List.filter_map Fun.id
            [ describe "control" r.Testability.control;
              describe "observe" r.Testability.observe ]
        in
        if parts = [] then None
        else
          Some
            (Diagnostic.make ~code:"HFT-L002" ~severity:Diagnostic.Warning
               ~loc:(Diagnostic.Register r.Testability.reg)
               (Printf.sprintf "register %s: %s"
                  (reg_name d r.Testability.reg)
                  (String.concat "; " parts))))
    reports

(* ------------------------------------------------------------------ *)
(* HFT-L003: combinational cycles in the gate netlist                 *)
(* ------------------------------------------------------------------ *)

let comb_cycles nl =
  let n = Netlist.n_nodes nl in
  let g = Hft_util.Digraph.create n in
  for v = 0 to n - 1 do
    (* DFF fanin is a sequential edge; everything else combinational. *)
    if Netlist.kind nl v <> Netlist.Dff then
      Array.iter (fun f -> Hft_util.Digraph.add_edge g f v) (Netlist.fanin nl v)
  done;
  let members = Hft_util.Digraph.scc_members g in
  Array.to_list members
  |> List.filter_map (fun vs ->
         match vs with
         | [] | [ _ ] ->
           (* [add] forbids forward refs, so a 1-node comb cycle would
              need a self-edge via [set_fanin]; check anyway. *)
           (match vs with
            | [ v ] when Hft_util.Digraph.mem_edge g v v -> Some [ v ]
            | _ -> None)
         | vs -> Some vs)

let l003_comb_cycles _cfg ctx =
  let nl = (Lazy.force ctx.expand).Expand.netlist in
  List.map
    (fun vs ->
      let names =
        List.map (fun v -> Netlist.node_name nl v) vs |> String.concat ", "
      in
      Diagnostic.make ~code:"HFT-L003" ~severity:Diagnostic.Error
        ~loc:(Diagnostic.Net (List.hd vs))
        (Printf.sprintf "combinational cycle through %d nets (%s)"
           (List.length vs) names))
    (comb_cycles nl)

(* ------------------------------------------------------------------ *)
(* HFT-L004: dangling nets                                            *)
(* ------------------------------------------------------------------ *)

let dangling_nets nl =
  let acc = ref [] in
  for v = Netlist.n_nodes nl - 1 downto 0 do
    (* Constants are wiring stock, not logic; an unused one is noise. *)
    let exempt =
      match Netlist.kind nl v with
      | Netlist.Po | Netlist.Const0 | Netlist.Const1 -> true
      | _ -> false
    in
    if (not exempt) && Netlist.fanout nl v = [] then acc := v :: !acc
  done;
  !acc

let l004_dangling_nets _cfg ctx =
  let nl = (Lazy.force ctx.expand).Expand.netlist in
  List.map
    (fun v ->
      Diagnostic.make ~code:"HFT-L004" ~severity:Diagnostic.Warning
        ~loc:(Diagnostic.Net v)
        (Printf.sprintf "net %s drives nothing (unobservable logic)"
           (Netlist.node_name nl v)))
    (dangling_nets nl)

(* ------------------------------------------------------------------ *)
(* HFT-L005: scan-chain integrity                                     *)
(* ------------------------------------------------------------------ *)

let l005_scan_chain _cfg ctx =
  let d = ctx.datapath in
  let scan_regs =
    List.filter (fun r -> reg_kind d r = Datapath.Scan)
      (List.init (Datapath.n_regs d) Fun.id)
  in
  if scan_regs = [] then []
  else begin
    (* Fresh expansion: chain insertion rewires the netlist in place
       and must not disturb the shared one. *)
    let ex = Expand.of_datapath d in
    let bad_width =
      List.filter_map
        (fun r ->
          let bits = Array.length ex.Expand.reg_q.(r) in
          if bits <> d.Datapath.width then
            Some
              (Diagnostic.make ~code:"HFT-L005" ~severity:Diagnostic.Error
                 ~loc:(Diagnostic.Register r)
                 (Printf.sprintf
                    "scan register %s expands to %d cells, expected %d"
                    (reg_name d r) bits d.Datapath.width))
          else None)
        scan_regs
    in
    if bad_width <> [] then bad_width
    else
      let cells = Expand.reg_flops ex scan_regs in
      match
        let chain = Hft_scan.Chain.insert ex.Expand.netlist cells in
        Hft_scan.Chain.verify_shift chain
      with
      | true -> []
      | false ->
        [ Diagnostic.make ~code:"HFT-L005" ~severity:Diagnostic.Error
            ~loc:Diagnostic.Design
            (Printf.sprintf
               "scan chain over %d cells (%d registers) does not shift \
                cleanly"
               (List.length cells) (List.length scan_regs)) ]
      | exception Invalid_argument msg ->
        [ Diagnostic.make ~code:"HFT-L005" ~severity:Diagnostic.Error
            ~loc:Diagnostic.Design
            (Printf.sprintf "scan chain could not be threaded: %s" msg) ]
  end

(* ------------------------------------------------------------------ *)
(* HFT-L006: BIST role capability                                     *)
(* ------------------------------------------------------------------ *)

let l006_bist_roles _cfg ctx =
  let d = ctx.datapath in
  let has_bist =
    List.exists
      (fun r ->
        match reg_kind d r with
        | Datapath.Tpgr | Datapath.Sr | Datapath.Bilbo | Datapath.Cbilbo ->
          true
        | _ -> false)
      (List.init (Datapath.n_regs d) Fun.id)
  in
  if not has_bist then []
  else begin
    let plan = Hft_bist.Bilbo.plan d in
    let capable required kind =
      match (required, kind) with
      | Hft_bist.Bilbo.R_none, _ -> true
      | _, Datapath.Cbilbo -> true
      | Hft_bist.Bilbo.R_cbilbo, _ -> false
      | Hft_bist.Bilbo.R_bilbo, Datapath.Bilbo -> true
      | Hft_bist.Bilbo.R_bilbo, _ -> false
      | Hft_bist.Bilbo.R_tpgr, (Datapath.Tpgr | Datapath.Bilbo) -> true
      | Hft_bist.Bilbo.R_sr, (Datapath.Sr | Datapath.Bilbo) -> true
      | (Hft_bist.Bilbo.R_tpgr | Hft_bist.Bilbo.R_sr), _ -> false
    in
    let role_text = function
      | Hft_bist.Bilbo.R_none -> "no role"
      | Hft_bist.Bilbo.R_tpgr -> "pattern generation"
      | Hft_bist.Bilbo.R_sr -> "response compaction"
      | Hft_bist.Bilbo.R_bilbo -> "pattern generation and response \
                                   compaction in different sessions"
      | Hft_bist.Bilbo.R_cbilbo -> "pattern generation and response \
                                    compaction for the same block"
    in
    List.filter_map
      (fun r ->
        let required = plan.Hft_bist.Bilbo.roles.(r) in
        if capable required (reg_kind d r) then None
        else
          Some
            (Diagnostic.make ~code:"HFT-L006" ~severity:Diagnostic.Error
               ~loc:(Diagnostic.Register r)
               (Printf.sprintf
                  "register %s (%s) must support %s; needs %s"
                  (reg_name d r)
                  (Datapath.reg_kind_to_string (reg_kind d r))
                  (role_text required)
                  (match required with
                   | Hft_bist.Bilbo.R_cbilbo -> "a concurrent BILBO"
                   | Hft_bist.Bilbo.R_bilbo -> "a reconfigurable BILBO"
                   | _ -> "a BIST-capable register"))))
      (List.init (Datapath.n_regs d) Fun.id)
  end

(* ------------------------------------------------------------------ *)
(* HFT-L007 / L008: SCOAP threshold checks                            *)
(* ------------------------------------------------------------------ *)

let is_logic nl v =
  match Netlist.kind nl v with
  | Netlist.Pi | Netlist.Po | Netlist.Const0 | Netlist.Const1 -> false
  | _ -> true

let l007_hard_control cfg ctx =
  let nl = (Lazy.force ctx.expand).Expand.netlist in
  let m = Lazy.force ctx.scoap in
  let acc = ref [] in
  for v = Netlist.n_nodes nl - 1 downto 0 do
    if is_logic nl v && Scoap.worst_cc m v > cfg.cc_threshold then
      acc :=
        Diagnostic.make ~code:"HFT-L007" ~severity:Diagnostic.Warning
          ~loc:(Diagnostic.Net v)
          (Printf.sprintf "net %s is hard to control (%s, threshold %d)"
             (Netlist.node_name nl v) (Scoap.pp_node m v) cfg.cc_threshold)
        :: !acc
  done;
  !acc

let l008_hard_observe cfg ctx =
  let nl = (Lazy.force ctx.expand).Expand.netlist in
  let m = Lazy.force ctx.scoap in
  let acc = ref [] in
  for v = Netlist.n_nodes nl - 1 downto 0 do
    if is_logic nl v && m.Scoap.co.(v) > cfg.co_threshold then
      acc :=
        Diagnostic.make ~code:"HFT-L008" ~severity:Diagnostic.Warning
          ~loc:(Diagnostic.Net v)
          (Printf.sprintf "net %s is hard to observe (%s, threshold %d)"
             (Netlist.node_name nl v) (Scoap.pp_node m v) cfg.co_threshold)
        :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* HFT-L009 / L010: statically unattainable measures                   *)
(*                                                                     *)
(* A saturated SCOAP measure is qualitatively different from a large   *)
(* one: [infinite] means the fixpoint found NO input assignment that   *)
(* sets the value (controllability) or NO sensitized path to an        *)
(* output (observability) in the pure combinational view — every       *)
(* stuck-at fault on such a net is dead weight for a combinational     *)
(* tester.  These come from the shared {!Hft_analysis.Scoap} engine,   *)
(* the same measures the guided-ATPG layer orders its search by.       *)
(* ------------------------------------------------------------------ *)

let uncontrollable_nets nl m =
  let acc = ref [] in
  for v = Netlist.n_nodes nl - 1 downto 0 do
    if
      is_logic nl v
      && (Scoap.is_inf m.Scoap.cc0.(v) || Scoap.is_inf m.Scoap.cc1.(v))
    then acc := v :: !acc
  done;
  !acc

let unobservable_nets nl m =
  let acc = ref [] in
  for v = Netlist.n_nodes nl - 1 downto 0 do
    (* Dangling nets are already HFT-L004; only flag driven logic whose
       every path to an output is blocked. *)
    if is_logic nl v && Netlist.fanout nl v <> [] && Scoap.is_inf m.Scoap.co.(v)
    then acc := v :: !acc
  done;
  !acc

let l009_uncontrollable _cfg ctx =
  let nl = (Lazy.force ctx.expand).Expand.netlist in
  let m = Lazy.force ctx.scoap in
  List.map
    (fun v ->
      let which =
        match
          (Scoap.is_inf m.Scoap.cc0.(v), Scoap.is_inf m.Scoap.cc1.(v))
        with
        | true, true -> "either value"
        | true, false -> "0"
        | _ -> "1"
      in
      Diagnostic.make ~code:"HFT-L009" ~severity:Diagnostic.Warning
        ~loc:(Diagnostic.Net v)
        (Printf.sprintf
           "net %s cannot be set to %s from the inputs (SCOAP CC infinite); \
            stuck-at faults needing that value are combinationally untestable"
           (Netlist.node_name nl v) which))
    (uncontrollable_nets nl m)

let l010_unobservable _cfg ctx =
  let nl = (Lazy.force ctx.expand).Expand.netlist in
  let m = Lazy.force ctx.scoap in
  List.map
    (fun v ->
      Diagnostic.make ~code:"HFT-L010" ~severity:Diagnostic.Warning
        ~loc:(Diagnostic.Net v)
        (Printf.sprintf
           "net %s has no sensitizable path to any output (SCOAP CO \
            infinite); every fault on it is combinationally unobservable"
           (Netlist.node_name nl v)))
    (unobservable_nets nl m)

(* ------------------------------------------------------------------ *)

let cap cfg code ds =
  let n = List.length ds in
  if n <= cfg.max_per_rule then ds
  else
    let kept = List.filteri (fun i _ -> i < cfg.max_per_rule) ds in
    kept
    @ [ Diagnostic.make ~code ~severity:Diagnostic.Info ~loc:Diagnostic.Design
          (Printf.sprintf "%d further %s findings suppressed"
             (n - cfg.max_per_rule) code) ]

let all cfg ctx =
  List.concat
    [
      cap cfg "HFT-L001" (l001_assignment_loops cfg ctx);
      cap cfg "HFT-L002" (l002_rtl_ranges cfg ctx);
      cap cfg "HFT-L003" (l003_comb_cycles cfg ctx);
      cap cfg "HFT-L004" (l004_dangling_nets cfg ctx);
      cap cfg "HFT-L005" (l005_scan_chain cfg ctx);
      cap cfg "HFT-L006" (l006_bist_roles cfg ctx);
      cap cfg "HFT-L007" (l007_hard_control cfg ctx);
      cap cfg "HFT-L008" (l008_hard_observe cfg ctx);
      cap cfg "HFT-L009" (l009_uncontrollable cfg ctx);
      cap cfg "HFT-L010" (l010_unobservable cfg ctx);
    ]
