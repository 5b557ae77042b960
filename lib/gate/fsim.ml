open Hft_util

type strategy = Naive | Cone

type comb_result = {
  detected : Fault.t list;
  undetected : Fault.t list;
  n_patterns : int;
}

let coverage r =
  let d = List.length r.detected and u = List.length r.undetected in
  if d + u = 0 then 1.0 else float_of_int d /. float_of_int (d + u)

let load_patterns nl st patterns =
  let pis = Netlist.pis nl in
  let n_patterns = Array.length patterns in
  List.iteri
    (fun i pi ->
      let bv = Bitvec.create n_patterns in
      Array.iteri (fun p row -> Bitvec.set bv p row.(i)) patterns;
      Sim.pset_pi st pi bv)
    pis

(* One flush per simulation call: [events] is the cost unit (nodes ×
   passes for the naive strategy, good pass + cone sizes for the cone
   strategy — charged even where the drop kernel's wavefront evaluates
   fewer nodes), the unit the ROADMAP's events/sec goal is stated in. *)
let flush ~faults ~detected ~patterns ~events ~seconds =
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.fsim.runs";
    Hft_obs.Registry.incr "hft.fsim.faults" ~by:faults;
    Hft_obs.Registry.incr "hft.fsim.detected" ~by:detected;
    Hft_obs.Registry.incr "hft.fsim.patterns" ~by:patterns;
    Hft_obs.Registry.incr "hft.fsim.events" ~by:events;
    Hft_obs.Registry.observe "hft.fsim.time" seconds;
    if seconds > 0.0 then
      Hft_obs.Registry.set "hft.fsim.events_per_sec"
        (float_of_int events /. seconds);
    Hft_obs.Journal.record
      (Hft_obs.Journal.Fsim_run { faults; detected; patterns; events })
  end

(* ------------------------------------------------------------------ *)
(* Group engine.  A group is one logical fault as a list of injection  *)
(* sites (several when replicated across time frames); detection means *)
(* some observe node differs from the good machine with all sites      *)
(* active at once.                                                     *)

(* Effective roots of a group for one combinational pass: a stem fault
   changes its own node, a pin fault changes the consuming gate — except
   on a [Dff], whose D input is only sampled by [pclock], never read
   combinationally. *)
let group_roots nl group =
  List.filter_map
    (fun f ->
      match f.Fault.pin with
      | None -> Some f.Fault.node
      | Some _ ->
        if Netlist.kind nl f.Fault.node = Netlist.Dff then None
        else Some f.Fault.node)
    group

let group_cone nl group = Netlist.fanout_cone_union nl (group_roots nl group)

(* [run_groups] simulates every group against the good machine whose
   sources [load] establishes.  Returns per-group detection flags plus
   the event count.

   Naive: full re-evaluation of the netlist per group (the historical
   algorithm, kept for differential testing).

   Cone: copy-on-write from the good state — only the union of the
   fault sites' fanout cones is re-evaluated, reading good values for
   fanins outside the cone, and only observe nodes inside the cone are
   compared.  Nodes outside the cone provably keep their good values,
   so the two strategies report bit-identical detections. *)
let run_groups ?(on_group_events = fun _ _ -> ()) ~strategy nl ~n_patterns
    ~load ~observe groups =
  let n = Netlist.n_nodes nl in
  let good = Sim.pcreate nl ~n_patterns in
  load good;
  Sim.peval nl good;
  let events = ref n in
  let n_groups = List.length groups in
  let detected = Array.make n_groups false in
  (match strategy with
   | Naive ->
     let good_obs =
       List.map (fun o -> Bitvec.copy (Sim.pvalue good o)) observe
     in
     let faulty = Sim.pcreate nl ~n_patterns in
     List.iteri
       (fun gi group ->
         (* Reload source values each time: a stem fault on a source
            node forces the state in place and would otherwise leak
            into later groups. *)
         load faulty;
         Sim.peval ~faults:group nl faulty;
         events := !events + n;
         on_group_events gi n;
         detected.(gi) <-
           List.exists2
             (fun o gobs -> Bitvec.any_diff (Sim.pvalue faulty o) gobs)
             observe good_obs)
       groups
   | Cone ->
     let is_obs = Array.make n false in
     List.iter (fun o -> is_obs.(o) <- true) observe;
     (* Copy-on-write faulty values: [None] means "same as good". *)
     let fval : Bitvec.t option array = Array.make n None in
     let pool = ref [] in
     let alloc () =
       match !pool with
       | b :: tl -> pool := tl; b
       | [] -> Bitvec.create n_patterns
     in
     let forced = Array.init 3 (fun _ -> Bitvec.create n_patterns) in
     let tmp = Bitvec.create n_patterns in
     List.iteri
       (fun gi group ->
         (* Groups are one logical fault (a handful of sites at most):
            direct list probes beat building tables. *)
         let stem_of v =
           List.fold_left
             (fun acc f ->
               if f.Fault.pin = None && f.Fault.node = v then Some f else acc)
             None group
         and pin_of v p =
           List.find_opt
             (fun f -> f.Fault.node = v && f.Fault.pin = Some p)
             group
         in
         let read src consumer pin =
           match pin_of consumer pin with
           | Some f ->
             Bitvec.fill forced.(pin) f.Fault.stuck;
             forced.(pin)
           | None ->
             (match fval.(src) with
              | Some b -> b
              | None -> Sim.pvalue good src)
         in
         let cone = group_cone nl group in
         if !Hft_obs.Config.enabled then
           Hft_obs.Registry.record "hft.fsim.cone_nodes"
             (float_of_int (Array.length cone));
         on_group_events gi (Array.length cone);
         let hit = ref false in
         Array.iter
           (fun v ->
             incr events;
             (match stem_of v with
              | Some f ->
                let b = alloc () in
                Bitvec.fill b f.Fault.stuck;
                fval.(v) <- Some b
              | None ->
                (match Netlist.kind nl v with
                 | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1
                   -> () (* sources keep their good values *)
                 | Netlist.Po | Netlist.Buf ->
                   let b = alloc () in
                   Bitvec.assign ~dst:b (read (Netlist.fanin nl v).(0) v 0);
                   fval.(v) <- Some b
                 | Netlist.Not ->
                   let b = alloc () in
                   Bitvec.not_ ~dst:b (read (Netlist.fanin nl v).(0) v 0);
                   fval.(v) <- Some b
                 | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor
                 | Netlist.Xor | Netlist.Xnor ->
                   let fi = Netlist.fanin nl v in
                   let a = read fi.(0) v 0 and c = read fi.(1) v 1 in
                   let b = alloc () in
                   (match Netlist.kind nl v with
                    | Netlist.And -> Bitvec.and_ ~dst:b a c
                    | Netlist.Or -> Bitvec.or_ ~dst:b a c
                    | Netlist.Xor -> Bitvec.xor ~dst:b a c
                    | Netlist.Nand ->
                      Bitvec.and_ ~dst:tmp a c;
                      Bitvec.not_ ~dst:b tmp
                    | Netlist.Nor ->
                      Bitvec.or_ ~dst:tmp a c;
                      Bitvec.not_ ~dst:b tmp
                    | Netlist.Xnor ->
                      Bitvec.xor ~dst:tmp a c;
                      Bitvec.not_ ~dst:b tmp
                    | _ -> assert false);
                   fval.(v) <- Some b
                 | Netlist.Mux2 ->
                   let fi = Netlist.fanin nl v in
                   let s = read fi.(0) v 0 in
                   let a = read fi.(1) v 1 and c = read fi.(2) v 2 in
                   let b = alloc () in
                   Bitvec.mux ~dst:b s a c;
                   fval.(v) <- Some b));
             if is_obs.(v) then
               match fval.(v) with
               | Some b ->
                 if Bitvec.any_diff b (Sim.pvalue good v) then hit := true
               | None -> ())
           cone;
         detected.(gi) <- !hit;
         Array.iter
           (fun v ->
             match fval.(v) with
             | Some b ->
               pool := b :: !pool;
               fval.(v) <- None
             | None -> ())
           cone)
       groups);
  (detected, !events)

let count_true a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a

let result_of_flags faults flags n_patterns =
  let detected = ref [] and undetected = ref [] in
  List.iteri
    (fun i f ->
      if flags.(i) then detected := f :: !detected
      else undetected := f :: !undetected)
    faults;
  { detected = List.rev !detected; undetected = List.rev !undetected;
    n_patterns }

let zero_dffs nl st =
  List.iter (fun d -> Bitvec.fill (Sim.pvalue st d) false) (Netlist.dffs nl)

let comb_scan ?(strategy = Cone) nl ~scanned ~patterns faults =
  let t0 = Hft_obs.Clock.now () in
  let n_patterns = Array.length patterns in
  if n_patterns = 0 then
    { detected = []; undetected = faults; n_patterns = 0 }
  else begin
    let pis = Netlist.pis nl in
    let n_pi = List.length pis in
    let load st =
      load_patterns nl st patterns;
      zero_dffs nl st;
      (* Scan load: columns beyond the PIs preset the scan cells. *)
      List.iteri
        (fun i d ->
          let bv = Sim.pvalue st d in
          Array.iteri (fun p row -> Bitvec.set bv p row.(n_pi + i)) patterns)
        scanned
    in
    (* Scan observe: the captured next state of every scan cell is
       shifted out, so its D input joins the POs as an observation
       point. *)
    let observe =
      List.sort_uniq compare
        (Netlist.pos nl
         @ List.map (fun d -> (Netlist.fanin nl d).(0)) scanned)
    in
    let flags, events =
      run_groups ~strategy nl ~n_patterns ~load ~observe
        (List.map (fun f -> [ f ]) faults)
    in
    flush ~faults:(List.length faults) ~detected:(count_true flags)
      ~patterns:n_patterns ~events
      ~seconds:(Hft_obs.Clock.now () -. t0);
    result_of_flags faults flags n_patterns
  end

let comb ?strategy nl ~patterns faults =
  comb_scan ?strategy nl ~scanned:[] ~patterns faults

let comb_random ?strategy nl ~rng ~n_patterns faults =
  let n_pi = List.length (Netlist.pis nl) in
  let patterns =
    Array.init n_patterns (fun _ ->
        Array.init n_pi (fun _ -> Rng.bool rng))
  in
  comb ?strategy nl ~patterns faults

(* A drop-check group prepared once per netlist view: its sites and
   each injecting site's activation pair, [2 * source + stuck] — the
   node whose good value the site replaces (the faulty node for a stem
   fault, the consumed fanin for a pin fault).  Pin faults on a [Dff]
   and on a pin the node does not have (a frame-0 PI copy of an
   unscanned flip-flop keeps its D pin fault) inject nothing and get no
   pair.  The charge, the size of the cone union of the roots
   ([group_roots]), is computed on first read: only observability reads
   it.  A plain mutable field, not [Lazy]: forcing a lazy value another
   domain is forcing raises.  Roots are recomputed where needed (a live
   group's wavefront, a charge's first read) rather than kept in every
   class's group. *)
type group = {
  g_sites : Fault.t list;
  g_act : int array;
  mutable g_charge : int; (* -1 until first read *)
}

let group nl sites =
  let act =
    List.filter_map
      (fun f ->
        let v = f.Fault.node and stuck = Bool.to_int f.Fault.stuck in
        match f.Fault.pin with
        | None -> Some ((2 * v) + stuck)
        | Some p ->
          let fi = Netlist.fanin nl v in
          if Netlist.kind nl v = Netlist.Dff || p >= Array.length fi then None
          else Some ((2 * fi.(p)) + stuck))
      sites
  in
  { g_sites = sites; g_act = Array.of_list act; g_charge = -1 }

(* The drop kernel's per-domain workspace, grown to the largest netlist
   it has served and shared by every netlist in turn.  Good and faulty
   values are rebuilt on every call and marks are stamps drawn from
   [w_stamp], so a call abandoned by an exception leaves nothing a later
   call reads. *)
type workspace = {
  w_good : Sim.tstate;
  w_faulty : Sim.tstate;
  w_touched : int array;
  w_obs : int array; (* stamp: observe node of this call *)
  w_cone : int array; (* stamp: counted in this charge's cone union *)
  mutable w_stamp : int;
  w_heap : Sim.heap;
  mutable w_charges : int array; (* this call's charges, in group order *)
}

let workspace_key : workspace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let workspace nl =
  let n = Netlist.n_nodes nl in
  let w =
    match Domain.DLS.get workspace_key with
    | Some w when Array.length w.w_good >= n -> w
    | _ ->
      let w =
        { w_good = Array.make n 2; w_faulty = Array.make n 2;
          w_touched = Array.make n 0; w_obs = Array.make n 0;
          w_cone = Array.make n 0; w_stamp = 0; w_heap = Sim.heap_create nl;
          w_charges = [||] }
      in
      Domain.DLS.set workspace_key (Some w);
      w
  in
  Sim.heap_bind w.w_heap nl;
  w

let fresh w =
  w.w_stamp <- w.w_stamp + 1;
  w.w_stamp

let charge w nl g =
  if g.g_charge < 0 then
    g.g_charge <-
      (match group_roots nl g.g_sites with
       | [] -> 0
       | [ r ] -> Array.length (Netlist.fanout_cone nl r)
       | roots ->
         let stamp = fresh w and mark = w.w_cone in
         List.fold_left
           (fun size r ->
             let cone = Netlist.fanout_cone nl r in
             let size = ref size in
             for i = 0 to Array.length cone - 1 do
               let v = cone.(i) in
               if mark.(v) <> stamp then begin
                 mark.(v) <- stamp;
                 incr size
               end
             done;
             !size)
           0 roots);
  g.g_charge

(* Some site replaces a defined good value with a different one. *)
let live good g =
  let act = g.g_act in
  let rec go i =
    i < Array.length act
    &&
    let a = act.(i) in
    let v = good.(a lsr 1) in
    (v < 2 && v <> a land 1) || go (i + 1)
  in
  go 0

let differs g f = g < 2 && f < 2 && g <> f

(* Single-pattern drop check, three-valued (X-sound): sources without an
   assignment stay at [fill] (X, or 0 for the two-valued check), and
   detection requires a defined, differing good/faulty pair at an
   observe node — exactly [Podem.check]'s criterion, so a positive
   answer is valid for {e any} value of the unassigned sources (unknown
   initial state included).

   The [Cone] strategy propagates only the fault-effect wavefront: the
   group's roots are queued on the topo-ordered heap, each popped node
   is re-evaluated with the group's faults forced, and only a node whose
   faulty value differs from its good value queues its (non-[Dff])
   fanouts.  A node none of whose fanins differ reproduces its good
   value, so skipping it is exact.  A group with no live site starts no
   wavefront at all: the [Netlist.tri_*] operators are monotone in the
   information order (X below 0 and 1), so when every site only refines
   an X good value, every faulty value refines its good value, every
   node that differs has good X, and [differs] cannot hold at an
   observe node.  With one live site, every site is forced: a dead X
   site can still complete a detection (AND(a, b), a = 0 with a s-a-1
   live, b = X with b s-a-1 dead, is detected only with both forced).
   Each group is still charged the size of its cone union — the cost
   unit [hft.fsim.events] and the ledger are stated in — but only when
   observability or [on_group_events] reads it. *)
let kernel ~fill ?on_group_events ?(strategy = Cone) nl ~assignment ~observe
    groups =
  let t0 = Hft_obs.Clock.now () in
  let n = Netlist.n_nodes nl in
  let assign st =
    List.iter (fun (v, b) -> st.(v) <- Bool.to_int b) assignment
  in
  let n_groups = List.length groups in
  let detected = Array.make n_groups false in
  let events = ref n in
  let charged = Option.is_some on_group_events in
  let on_group_events = Option.value on_group_events ~default:(fun _ _ -> ()) in
  (match strategy with
   | Naive ->
     let machine faults =
       let st = Array.make n fill in
       assign st;
       Sim.teval ~faults nl st;
       st
     in
     let good = machine [] in
     List.iteri
       (fun gi g ->
         let faulty = machine g.g_sites in
         events := !events + n;
         on_group_events gi n;
         detected.(gi) <-
           List.exists (fun o -> differs good.(o) faulty.(o)) observe)
       groups
   | Cone ->
     let obs = !Hft_obs.Config.enabled in
     let charged = charged || obs in
     let w = workspace nl in
     let good = w.w_good and faulty = w.w_faulty and heap = w.w_heap in
     Array.fill good 0 n fill;
     assign good;
     Sim.teval nl good;
     Array.blit good 0 faulty 0 n;
     let stamp = fresh w in
     List.iter (fun o -> w.w_obs.(o) <- stamp) observe;
     if obs && Array.length w.w_charges < n_groups then
       w.w_charges <- Array.make n_groups 0;
     let kinds = Netlist.raw_kinds nl in
     let touched = w.w_touched and n_touched = ref 0 in
     List.iteri
       (fun gi g ->
         if charged then begin
           let size = charge w nl g in
           if obs then w.w_charges.(gi) <- size;
           on_group_events gi size;
           events := !events + size
         end;
         if live good g then begin
           let eval = Sim.teval_fn ~faults:g.g_sites nl in
           Sim.heap_reset heap;
           List.iter (Sim.heap_push heap) (group_roots nl g.g_sites);
           let hit = ref false in
           while (not !hit) && not (Sim.heap_is_empty heap) do
             let v = Sim.heap_pop heap in
             eval faulty v;
             if faulty.(v) <> good.(v) then begin
               touched.(!n_touched) <- v;
               incr n_touched;
               if w.w_obs.(v) = stamp && differs good.(v) faulty.(v) then
                 hit := true
               else
                 List.iter
                   (fun x ->
                     if kinds.(x) <> Netlist.Dff then Sim.heap_push heap x)
                   (Netlist.fanout nl v)
             end
           done;
           detected.(gi) <- !hit;
           for i = 0 to !n_touched - 1 do
             let v = touched.(i) in
             faulty.(v) <- good.(v)
           done;
           n_touched := 0
         end)
       groups;
     if obs then
       Hft_obs.Registry.record_ints "hft.fsim.cone_nodes" w.w_charges n_groups);
  flush ~faults:n_groups ~detected:(count_true detected) ~patterns:1
    ~events:!events
    ~seconds:(Hft_obs.Clock.now () -. t0);
  detected

let detect_groups_tri ?on_group_events ?strategy nl ~assignment ~observe
    groups =
  kernel ~fill:2 ?on_group_events ?strategy nl ~assignment ~observe groups

(* With every source defined the three-valued machine never produces X,
   so the kernel above is exactly the two-valued check. *)
let detect_groups ?on_group_events ?strategy nl ~assignment ~observe groups =
  kernel ~fill:0 ?on_group_events ?strategy nl ~assignment ~observe groups

let coverage_curve nl ~checkpoints ~next_pattern faults =
  let checkpoints = List.sort compare checkpoints in
  let remaining = ref faults in
  let total = List.length faults in
  let applied = ref 0 in
  List.map
    (fun target ->
      let batch = max 0 (target - !applied) in
      if batch > 0 then begin
        let patterns = Array.init batch (fun _ -> next_pattern ()) in
        let r = comb nl ~patterns !remaining in
        remaining := r.undetected;
        applied := target
      end;
      let det = total - List.length !remaining in
      (target, if total = 0 then 1.0 else float_of_int det /. float_of_int total))
    checkpoints

let sequential nl ~stimuli faults =
  let t0 = Hft_obs.Clock.now () in
  let good = Sim.run_cycles nl ~stimuli in
  let detected = ref [] and undetected = ref [] in
  List.iter
    (fun f ->
      let bad = Sim.run_cycles ~faults:[ f ] nl ~stimuli in
      if bad <> good then detected := f :: !detected
      else undetected := f :: !undetected)
    faults;
  let n_faults = List.length faults in
  flush ~faults:n_faults
    ~detected:(List.length !detected)
    ~patterns:(Array.length stimuli)
    ~events:(Netlist.n_nodes nl * (n_faults + 1) * Array.length stimuli)
    ~seconds:(Hft_obs.Clock.now () -. t0);
  { detected = List.rev !detected; undetected = List.rev !undetected;
    n_patterns = Array.length stimuli }
