open Hft_util

type t = {
  universe : Fault.t array;
  index : (Fault.t, int) Hashtbl.t;
  class_id : int array;
  classes : Fault.t list array;
  reps : Fault.t array;
}

let n_faults t = Array.length t.universe
let n_classes t = Array.length t.classes
let class_of t f = Hashtbl.find_opt t.index f |> Option.map (fun i -> t.class_id.(i))
let members t c = t.classes.(c)
let representative t c = t.reps.(c)

(* The handle for "the fault on gate [g]'s input pin [p], stuck at
   [v]".  On a multi-fanout net that is the branch (pin) fault; on a
   fanout-free net the universe holds no pin fault and the driver's
   stem fault plays the role (they are the same physical site). *)
let input_fault nl g p v =
  let d = (Netlist.fanin nl g).(p) in
  if List.length (Netlist.fanout nl d) > 1 then
    { Fault.node = g; pin = Some p; stuck = v }
  else { Fault.node = d; pin = None; stuck = v }

let stem g v = { Fault.node = g; pin = None; stuck = v }

let compute nl =
  let universe = Array.of_list (Fault.universe nl) in
  let n = Array.length universe in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri (fun i f -> Hashtbl.replace index f i) universe;
  let uf = Union_find.create n in
  (* Merging a fault absent from the universe (e.g. the stem of a
     constant driver) is a no-op, keeping every class inside the
     universe. *)
  let merge a b =
    match (Hashtbl.find_opt index a, Hashtbl.find_opt index b) with
    | Some i, Some j -> Union_find.union uf i j
    | _ -> ()
  in
  for g = 0 to Netlist.n_nodes nl - 1 do
    (* Structural equivalences across one gate boundary: the faulty
       functions are literally identical, so any test detecting one
       member detects them all (in any surrounding circuit, sequential
       included). *)
    match Netlist.kind nl g with
    | Netlist.Buf ->
      merge (input_fault nl g 0 false) (stem g false);
      merge (input_fault nl g 0 true) (stem g true)
    | Netlist.Not ->
      merge (input_fault nl g 0 false) (stem g true);
      merge (input_fault nl g 0 true) (stem g false)
    | Netlist.And ->
      merge (input_fault nl g 0 false) (stem g false);
      merge (input_fault nl g 1 false) (stem g false)
    | Netlist.Nand ->
      merge (input_fault nl g 0 false) (stem g true);
      merge (input_fault nl g 1 false) (stem g true)
    | Netlist.Or ->
      merge (input_fault nl g 0 true) (stem g true);
      merge (input_fault nl g 1 true) (stem g true)
    | Netlist.Nor ->
      merge (input_fault nl g 0 true) (stem g false);
      merge (input_fault nl g 1 true) (stem g false)
    | Netlist.Pi | Netlist.Po | Netlist.Dff | Netlist.Const0 | Netlist.Const1
    | Netlist.Xor | Netlist.Xnor | Netlist.Mux2 -> ()
  done;
  (* Densify: class ids in order of first (lowest-index) member, which
     also becomes the representative — deterministic across runs. *)
  let class_id = Array.make n (-1) in
  let next = ref 0 in
  let root_class = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let r = Union_find.find uf i in
    let c =
      match Hashtbl.find_opt root_class r with
      | Some c -> c
      | None ->
        let c = !next in
        incr next;
        Hashtbl.replace root_class r c;
        c
    in
    class_id.(i) <- c
  done;
  let classes = Array.make !next [] in
  for i = n - 1 downto 0 do
    classes.(class_id.(i)) <- universe.(i) :: classes.(class_id.(i))
  done;
  let reps = Array.map List.hd classes in
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.collapse.runs";
    Hft_obs.Registry.incr "hft.collapse.faults" ~by:n;
    Hft_obs.Registry.incr "hft.collapse.classes" ~by:!next
  end;
  { universe; index; class_id; classes; reps }

let partition t faults =
  (* Group an arbitrary sample by class, preserving first-occurrence
     order; the leader is the first sampled member of its class.
     Faults outside the universe stay singletons. *)
  let order = ref [] in
  let groups : (int, Fault.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let singles = ref 0 in
  List.iter
    (fun f ->
      match class_of t f with
      | Some c ->
        (match Hashtbl.find_opt groups c with
         | Some cell -> cell := f :: !cell
         | None ->
           let cell = ref [ f ] in
           Hashtbl.replace groups c cell;
           order := `Class c :: !order)
      | None ->
        incr singles;
        order := `Single f :: !order)
    faults;
  List.rev_map
    (function
      | `Single f -> (f, [ f ])
      | `Class c ->
        let ms = List.rev !(Hashtbl.find groups c) in
        (List.hd ms, ms))
    !order
