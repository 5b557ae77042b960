open Hft_gate

(* Static guidance for PODEM: per (netlist, observe-set) analyses —
   SCOAP measures, post-dominators, the implication graph — combined
   per fault into a {!Hft_gate.Podem.guidance} record.

   Soundness invariants (they keep guided Untestable a proof and the
   guided cut test-preserving):

   - A per-site requirement set contains only literals that hold in
     every test detecting the fault through that site: the activation
     literal, non-controlling values on the consumer's other pins (pin
     faults), non-controlling values on dominator side inputs outside
     the union of all sites' fanout cones, and everything those imply.
   - A site is dead when its origin cannot reach any observe node or
     its requirement closure is self-contradictory; a fault with no
     live analyzable site is statically untestable.
   - A site the analysis cannot model (e.g. a pin fault whose consumer
     is a flip-flop, or a pin index past the fanin array after frame
     mapping) gets an empty requirement set: never violated, never
     counted dead — the guidance degrades to pure ordering for it. *)

(* [a_cone] marks the union of the current faults' fanout cones with
   the stamp [a_stamp]; each [provide] that marks draws a fresh stamp,
   so nothing is cleared between calls. *)
type analyses = {
  a_scoap : Scoap.t;
  a_dom : Dominators.t;
  a_impl : Implications.t;
  a_cone : int array;
  mutable a_stamp : int;
}

(* Engines cycle through one unrolled netlist per frame count, so a
   handful of entries covers a whole campaign.  Keyed on physical
   identity + version (structural edits invalidate) + observe set.
   Domain-local: parallel ATPG shards analyze their own workspace
   netlists, so sharing entries across domains would only race — each
   domain keeps its own small cache (cache_hits/misses counters are
   therefore scheduling-dependent at [-j > 1]; they are not part of the
   determinism contract). *)
let cache : (Netlist.t * int * int list * analyses) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let cache_cap = 8

let analyses_for nl ~observe =
  let ver = Netlist.version nl in
  let cached = Domain.DLS.get cache in
  match
    List.find_opt
      (fun (nl', ver', obs', _) ->
        nl' == nl && ver' = ver && (obs' == observe || obs' = observe))
      cached
  with
  | Some (_, _, _, a) ->
    Hft_obs.Registry.incr "hft.analysis.cache_hits";
    a
  | None ->
    Hft_obs.Registry.incr "hft.analysis.cache_misses";
    let a =
      { a_scoap = Scoap.analyze nl;
        a_dom = Dominators.compute nl ~observe;
        a_impl = Implications.compute nl;
        a_cone = Array.make (Netlist.n_nodes nl) 0; a_stamp = 0 }
    in
    let keep = List.filteri (fun i _ -> i < cache_cap - 1) cached in
    Domain.DLS.set cache ((nl, ver, observe, a) :: keep);
    a

(* Non-controlling side-input requirements for a difference crossing
   gate [g], given that inputs inside [in_ucone] may carry the
   difference (and so are unconstrained).  [skip] masks the faulted pin
   for consumer gates. *)
let side_requirements nl ~in_ucone ?(skip = -1) g =
  let fi = Netlist.fanin nl g in
  let reqs = ref [] in
  (match Netlist.kind nl g with
   | Netlist.And | Netlist.Nand ->
     Array.iteri
       (fun j a -> if j <> skip && not (in_ucone a) then reqs := (a, 1) :: !reqs)
       fi
   | Netlist.Or | Netlist.Nor ->
     Array.iteri
       (fun j a -> if j <> skip && not (in_ucone a) then reqs := (a, 0) :: !reqs)
       fi
   | Netlist.Mux2 ->
     (* [sel; a; b], sel = 1 selects b.  When the difference can only
        arrive through one data leg, the select must route that leg.
        A faulted select pin ([skip = 0]) leaves the select free. *)
     let sel = fi.(0) and a = fi.(1) and b = fi.(2) in
     if skip <> 0 && not (in_ucone sel) then begin
       let a_live = skip = 1 || in_ucone a in
       let b_live = skip = 2 || in_ucone b in
       if a_live && not b_live then reqs := (sel, 0) :: !reqs
       else if b_live && not a_live then reqs := (sel, 1) :: !reqs
     end
   | Netlist.Xor | Netlist.Xnor | Netlist.Buf | Netlist.Not | Netlist.Po
   | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1 -> ());
  !reqs

type site =
  | Dead  (* provably undetectable through this site *)
  | Opaque  (* unanalyzable: no requirements, no claims *)
  | Live of (int * int) list  (* closed requirement set *)

(* A site is decided opaque, then dead, before its requirements are
   built: only a live candidate queries [in_ucone]. *)
let analyze_site nl a ~in_ucone f =
  let n = Netlist.n_nodes nl in
  let origin = f.Fault.node in
  let opaque =
    origin < 0 || origin >= n
    ||
    match f.Fault.pin with
    | None -> false
    | Some p ->
      p < 0
      || p >= Array.length (Netlist.fanin nl origin)
      || Netlist.kind nl origin = Netlist.Dff
  in
  if opaque then Opaque
  else if not (Dominators.reaches a.a_dom origin) then Dead
  else begin
    let want = if f.Fault.stuck then 0 else 1 in
    let base =
      match f.Fault.pin with
      | None -> [ (origin, want) ]
      | Some p ->
        ((Netlist.fanin nl origin).(p), want)
        :: side_requirements nl ~in_ucone ~skip:p origin
    in
    let dom_reqs =
      List.concat_map
        (fun d -> side_requirements nl ~in_ucone d)
        (Dominators.chain a.a_dom origin)
    in
    match Implications.closure a.a_impl (base @ dom_reqs) with
    | Implications.Contradiction -> Dead
    | Implications.Consistent lits -> Live lits
  end

let provide nl ~observe ~faults =
  Hft_obs.Registry.incr "hft.analysis.provides";
  let a = analyses_for nl ~observe in
  (* A fault outside the netlist raises here, whether or not its cone
     is ever marked. *)
  List.iter
    (fun f -> ignore (Netlist.kind nl f.Fault.node : Netlist.kind))
    faults;
  (* The cone union is marked on the first side-requirement query: a
     call whose sites are all opaque or unobservable never walks it. *)
  let n = Netlist.n_nodes nl and cone = a.a_cone in
  let marked = ref false in
  let in_ucone v =
    if not !marked then begin
      marked := true;
      a.a_stamp <- a.a_stamp + 1;
      List.iter
        (fun f -> Netlist.mark_cone nl cone a.a_stamp f.Fault.node)
        faults
    end;
    v >= 0 && v < n && cone.(v) = a.a_stamp
  in
  let sites = List.map (analyze_site nl a ~in_ucone) faults in
  let any_live_or_opaque =
    List.exists (function Dead -> false | _ -> true) sites
  in
  let static_untestable = faults <> [] && not any_live_or_opaque in
  if static_untestable then
    Hft_obs.Registry.incr "hft.analysis.static_untestable";
  (* Dead sites are dropped (they admit no detecting test, so they must
     not weaken the intersection or the cut); opaque sites keep an
     empty set, which voids the cut and the intersection — exactly the
     do-no-harm degradation. *)
  let kept =
    List.filter_map
      (function
        | Dead -> None
        | Opaque -> Some []
        | Live lits -> Some lits)
      sites
  in
  let common =
    match kept with
    | [] -> []
    | first :: rest ->
      List.filter
        (fun lit -> List.for_all (fun set -> List.mem lit set) rest)
        first
  in
  {
    Podem.g_static_untestable = static_untestable;
    g_common_required = Array.of_list common;
    g_site_required =
      (if static_untestable then [||]
       else Array.of_list (List.map Array.of_list kept));
    g_cc0 = a.a_scoap.Scoap.cc0;
    g_cc1 = a.a_scoap.Scoap.cc1;
    g_co = a.a_scoap.Scoap.co;
  }

let reset_cache () = Domain.DLS.set cache []
