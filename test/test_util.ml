open Hft_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Digraph                                                            *)
(* ------------------------------------------------------------------ *)

let ring n =
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    Digraph.add_edge g i ((i + 1) mod n)
  done;
  g

let test_digraph_basic () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  check_int "size ignores duplicate edge" 2 (Digraph.size g);
  check "mem" true (Digraph.mem_edge g 0 1);
  check "not mem" false (Digraph.mem_edge g 1 0);
  Digraph.remove_edge g 0 1;
  check "removed" false (Digraph.mem_edge g 0 1);
  check_int "size after removal" 1 (Digraph.size g)

let test_digraph_detach () =
  let g = ring 5 in
  Digraph.detach g 2;
  check_int "detach removes both directions" 3 (Digraph.size g);
  check "acyclic after detach" true (Digraph.is_acyclic g)

let test_scc_ring () =
  let g = ring 6 in
  let count, comp = Digraph.scc g in
  check_int "one SCC" 1 count;
  Array.iter (fun c -> check_int "same comp" comp.(0) c) comp

let test_scc_dag () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 3;
  let count, _ = Digraph.scc g in
  check_int "four singleton SCCs" 4 count

let test_scc_two_loops () =
  (* Two 2-rings joined by a bridge. *)
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 3 2;
  let count, comp = Digraph.scc g in
  check_int "two nontrivial SCCs" 2 count;
  check "0,1 together" true (comp.(0) = comp.(1));
  check "2,3 together" true (comp.(2) = comp.(3));
  check "separate" true (comp.(0) <> comp.(2))

let test_topo () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 3 1;
  Digraph.add_edge g 1 0;
  Digraph.add_edge g 3 2;
  Digraph.add_edge g 2 0;
  (match Digraph.topological_sort g with
   | None -> Alcotest.fail "expected acyclic"
   | Some order ->
     let pos = Array.make 4 0 in
     List.iteri (fun i v -> pos.(v) <- i) order;
     Digraph.iter_edges (fun u v -> check "edge respects order" true (pos.(u) < pos.(v))) g);
  Digraph.add_edge g 0 3;
  check "cycle detected" true (Digraph.topological_sort g = None)

let test_self_loop_acyclicity () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 0 0;
  check "self loop is a cycle" false (Digraph.is_acyclic g);
  check "tolerated when ignored" true
    (Digraph.is_acyclic ~ignore_self_loops:true g)

let test_cycles_enum () =
  let g = ring 4 in
  Digraph.add_edge g 1 1;
  let cys = Digraph.cycles g ~max_len:6 ~max_count:100 in
  check_int "ring + self loop" 2 (List.length cys);
  check "self loop found" true (List.mem [ 1 ] cys);
  check "ring found" true (List.mem [ 0; 1; 2; 3 ] cys)

let test_cycles_bounded () =
  let g = ring 8 in
  check_int "length bound excludes long ring" 0
    (List.length (Digraph.cycles g ~max_len:7 ~max_count:10));
  check_int "count bound" 1
    (List.length (Digraph.cycles g ~max_len:8 ~max_count:1))

(* [Digraph.cycles] as it was when it re-sorted the current vertex's
   successors at every search step, kept verbatim as the oracle of the
   enumerator and its count. *)
let reference_cycles g ~max_len ~max_count =
  let found = ref [] in
  let count = ref 0 in
  let on_path = Array.make (Digraph.order g) false in
  let exception Done in
  let rec extend s path len v =
    if !count >= max_count then raise Done;
    List.iter
      (fun w ->
        if w = s then begin
          found := (s :: List.rev path) :: !found;
          incr count;
          if !count >= max_count then raise Done
        end
        else if w > s && (not on_path.(w)) && len < max_len then begin
          on_path.(w) <- true;
          extend s (w :: path) (len + 1) w;
          on_path.(w) <- false
        end)
      (List.sort compare (Digraph.succ g v))
  in
  (try
     for s = 0 to Digraph.order g - 1 do
       if max_len >= 1 then begin
         on_path.(s) <- true;
         extend s [] 1 s;
         on_path.(s) <- false
       end
     done
   with Done -> ());
  List.rev !found

(* [cycles] lists what the oracle lists; [count_cycles] counts it, and
   counts it without self-loops, which still count toward the cap. *)
let cycles_match_reference g ~max_len ~max_count =
  let want = reference_cycles g ~max_len ~max_count in
  Digraph.cycles g ~max_len ~max_count = want
  && Digraph.count_cycles g ~min_len:1 ~max_len ~max_count = List.length want
  && Digraph.count_cycles g ~min_len:2 ~max_len ~max_count
     = List.length (List.filter (fun c -> List.length c > 1) want)

let test_cycles_cap_inside_start () =
  (* Complete digraph, self-loops included: the search from vertex 0
     alone closes far more than 5 cycles. *)
  let n = 6 in
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      Digraph.add_edge g u v
    done
  done;
  let want = reference_cycles g ~max_len:16 ~max_count:5 in
  check "cap falls inside start 0" true
    (List.length want = 5 && List.for_all (fun c -> List.hd c = 0) want);
  check "same cycles" true (Digraph.cycles g ~max_len:16 ~max_count:5 = want);
  check_int "count" 5
    (Digraph.count_cycles g ~min_len:1 ~max_len:16 ~max_count:5);
  check_int "count without the self-loop" 4
    (Digraph.count_cycles g ~min_len:2 ~max_len:16 ~max_count:5);
  check "every bound" true
    (List.for_all
       (fun max_len ->
         List.for_all
           (fun max_count -> cycles_match_reference g ~max_len ~max_count)
           [ 0; 1; 5; 4096 ])
       [ 0; 1; 2; 3; 16 ])

let test_longest_path () =
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 0 3;
  Digraph.add_edge g 3 4;
  Digraph.add_edge g 4 2;
  let d = Digraph.longest_path_from_sources g in
  check_int "longest to sink" 3 d.(2)

let test_bfs () =
  let g = ring 5 in
  let d = Digraph.bfs_dist g 0 in
  check_int "around the ring" 4 d.(4);
  let r = Digraph.reachable g 0 in
  check "all reachable" true (Array.for_all (fun b -> b) r)

(* Random-graph properties. *)
let gen_graph =
  QCheck.Gen.(
    sized_size (int_bound 20) (fun n ->
        let n = n + 2 in
        list_size (int_bound (n * 3)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
        >|= fun edges ->
        let g = Digraph.create n in
        List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
        g))

let arb_graph = QCheck.make ~print:(fun g -> Digraph.to_dot g) gen_graph

let prop_scc_condensation_acyclic =
  QCheck.Test.make ~name:"scc condensation is acyclic" ~count:200 arb_graph
    (fun g ->
      let count, comp = Digraph.scc g in
      let cond = Digraph.create count in
      Digraph.iter_edges
        (fun u v -> if comp.(u) <> comp.(v) then Digraph.add_edge cond comp.(u) comp.(v))
        g;
      Digraph.is_acyclic cond)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose twice is identity" ~count:200 arb_graph
    (fun g ->
      let g2 = Digraph.transpose (Digraph.transpose g) in
      List.sort compare (Digraph.edges g) = List.sort compare (Digraph.edges g2))

(* Sparse to complete graphs of 1 to 9 vertices, self-loops included. *)
let gen_dense_graph =
  QCheck.Gen.(
    int_range 1 9 >>= fun n ->
    oneofl [ 0.1; 0.3; 0.6; 1.0 ] >>= fun p ->
    list_repeat (n * n) (float_bound_exclusive 1.0) >|= fun coins ->
    let g = Digraph.create n in
    List.iteri
      (fun k c -> if c < p then Digraph.add_edge g (k / n) (k mod n))
      coins;
    g)

let prop_of_edges_matches_add_edge =
  QCheck.Test.make ~name:"of_edges = add_edge in order" ~count:200
    QCheck.(
      pair (int_range 1 12) (list (pair (int_bound 11) (int_bound 11))))
    (fun (n, edges) ->
      let edges = List.map (fun (u, v) -> (u mod n, v mod n)) edges in
      let g = Digraph.create n in
      List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
      let g' =
        Digraph.of_edges n (fun add -> List.iter (fun (u, v) -> add u v) edges)
      in
      Digraph.size g = Digraph.size g'
      && List.for_all
           (fun v ->
             Digraph.succ g v = Digraph.succ g' v
             && Digraph.pred g v = Digraph.pred g' v)
           (List.init n Fun.id))

let prop_cycles_match_reference =
  QCheck.Test.make ~name:"cycle enumerator and count = reference" ~count:300
    (QCheck.make ~print:Digraph.to_dot
       QCheck.Gen.(oneof [ gen_graph; gen_dense_graph ]))
    (fun g ->
      List.for_all
        (fun max_len ->
          List.for_all
            (fun max_count -> cycles_match_reference g ~max_len ~max_count)
            [ 0; 1; 5; 4096 ])
        [ 0; 1; 2; 3; 16 ])

let prop_cycles_are_cycles =
  QCheck.Test.make ~name:"enumerated cycles are real cycles" ~count:200
    arb_graph (fun g ->
      let cys = Digraph.cycles g ~max_len:6 ~max_count:50 in
      List.for_all
        (fun cy ->
          match cy with
          | [] -> false
          | first :: _ ->
            let rec ok = function
              | [ last ] -> Digraph.mem_edge g last first
              | a :: (b :: _ as tl) -> Digraph.mem_edge g a b && ok tl
              | [] -> false
            in
            ok cy)
        cys)

(* ------------------------------------------------------------------ *)
(* Mfvs                                                               *)
(* ------------------------------------------------------------------ *)

let test_mfvs_ring () =
  let g = ring 5 in
  let fvs = Mfvs.greedy g in
  check_int "one cut for a ring" 1 (List.length fvs);
  check "valid" true (Mfvs.is_feedback_set g fvs)

let test_mfvs_self_loops () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 0;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 1;
  let fvs = Mfvs.greedy g in
  check "self-loop vertex in set" true (List.mem 0 fvs);
  check_int "two cuts total" 2 (List.length fvs);
  let fvs' = Mfvs.greedy ~ignore_self_loops:true g in
  check "self loop tolerated" false (List.mem 0 fvs');
  check_int "one cut" 1 (List.length fvs')

let test_mfvs_exact_beats_nothing () =
  (* Two disjoint rings sharing no vertex: need exactly 2. *)
  let g = Digraph.create 6 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ];
  let e = Mfvs.exact g in
  check_int "exact finds 2" 2 (List.length e);
  check "valid" true (Mfvs.is_feedback_set g e)

let test_mfvs_shared_vertex () =
  (* Two rings sharing vertex 0: exact should find the single shared cut. *)
  let g = Digraph.create 5 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (0, 3); (3, 4); (4, 0) ];
  let e = Mfvs.exact g in
  check_int "single shared cut" 1 (List.length e);
  check "it is vertex 0" true (e = [ 0 ])

let prop_greedy_is_feedback_set =
  QCheck.Test.make ~name:"greedy MFVS always breaks all cycles" ~count:200
    arb_graph (fun g -> Mfvs.is_feedback_set g (Mfvs.greedy g))

let prop_exact_no_larger_than_greedy =
  QCheck.Test.make ~name:"exact MFVS <= greedy MFVS" ~count:60 arb_graph
    (fun g ->
      let e = Mfvs.exact ~limit:6 g and gr = Mfvs.greedy g in
      Mfvs.is_feedback_set g e && List.length e <= List.length gr)

(* ------------------------------------------------------------------ *)
(* Interval                                                           *)
(* ------------------------------------------------------------------ *)

let iv = Interval.make

let test_interval_overlap () =
  check "disjoint" false (Interval.overlaps (iv 0 2) (iv 2 4));
  check "nested" true (Interval.overlaps (iv 0 4) (iv 1 2));
  check "crossing" true (Interval.overlaps (iv 0 3) (iv 2 5));
  check "empty never overlaps" false (Interval.overlaps (iv 2 2) (iv 0 4))

let test_left_edge_classic () =
  let items =
    [ ("a", iv 0 3); ("b", iv 3 5); ("c", iv 1 4); ("d", iv 4 6) ]
  in
  let assign, n = Interval.left_edge items in
  check_int "two tracks" 2 n;
  (* a,b can share; c,d can share. *)
  let track k = List.assoc k assign in
  check "a/b same" true (track "a" = track "b");
  check "c/d same" true (track "c" = track "d");
  check "a/c differ" true (track "a" <> track "c")

let arb_intervals =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair (int_bound 20) (int_range 1 8) >|= fun (lo, len) ->
         Interval.make lo (lo + len)))

let prop_left_edge_valid =
  QCheck.Test.make ~name:"left-edge never overlaps within a track" ~count:300
    arb_intervals (fun ivs ->
      let items = List.mapi (fun i v -> (i, v)) ivs in
      let assign, _ = Interval.left_edge items in
      List.for_all
        (fun (i, t) ->
          List.for_all
            (fun (j, t') ->
              i = j || t <> t'
              || not (Interval.overlaps (List.nth ivs i) (List.nth ivs j)))
            assign)
        assign)

let prop_left_edge_optimal =
  QCheck.Test.make ~name:"left-edge uses exactly max-overlap tracks"
    ~count:300 arb_intervals (fun ivs ->
      let items = List.mapi (fun i v -> (i, v)) ivs in
      let _, n = Interval.left_edge items in
      n = max 1 (Interval.max_overlap ivs))

(* ------------------------------------------------------------------ *)
(* Union_find                                                         *)
(* ------------------------------------------------------------------ *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Union_find.union uf 1 2;
  check "0~3" true (Union_find.same uf 0 3);
  check "0!~4" false (Union_find.same uf 0 4);
  let groups = Union_find.groups uf in
  check_int "three classes" 3 (List.length groups);
  check "class of 0 has 4 members" true
    (List.exists (fun (_, ms) -> List.length ms = 4) groups)

(* ------------------------------------------------------------------ *)
(* Bitvec                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitvec_ops () =
  let n = 100 in
  let a = Bitvec.create n and b = Bitvec.create n and d = Bitvec.create n in
  Bitvec.set a 3 true;
  Bitvec.set a 99 true;
  Bitvec.set b 99 true;
  Bitvec.and_ ~dst:d a b;
  check_int "and popcount" 1 (Bitvec.popcount d);
  Bitvec.or_ ~dst:d a b;
  check_int "or popcount" 2 (Bitvec.popcount d);
  Bitvec.xor ~dst:d a b;
  check "xor" true (Bitvec.get d 3 && not (Bitvec.get d 99));
  Bitvec.not_ ~dst:d a;
  check_int "not popcount" (n - 2) (Bitvec.popcount d)

let test_bitvec_mux () =
  let n = 10 in
  let s = Bitvec.create n and a = Bitvec.create n and b = Bitvec.create n in
  let d = Bitvec.create n in
  Bitvec.fill a false;
  Bitvec.fill b true;
  Bitvec.set s 4 true;
  Bitvec.mux ~dst:d s a b;
  check "selected b at 4" true (Bitvec.get d 4);
  check "selected a elsewhere" false (Bitvec.get d 5)

let prop_bitvec_not_involutive =
  QCheck.Test.make ~name:"bitvec not is involutive" ~count:200
    QCheck.(pair (int_range 1 200) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a = Bitvec.create n in
      Bitvec.randomize rng a;
      let b = Bitvec.create n and c = Bitvec.create n in
      Bitvec.not_ ~dst:b a;
      Bitvec.not_ ~dst:c b;
      Bitvec.equal a c)

let prop_bitvec_ones_popcount =
  QCheck.Test.make ~name:"ones agrees with popcount" ~count:200
    QCheck.(pair (int_range 1 200) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a = Bitvec.create n in
      Bitvec.randomize rng a;
      List.length (Bitvec.ones a) = Bitvec.popcount a
      && List.for_all (Bitvec.get a) (Bitvec.ones a))

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  check "split differs from parent" true (Rng.bits64 a <> Rng.bits64 c)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check "in range" true (x >= 0 && x < 17)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "permutation" true (sorted = Array.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Pretty                                                             *)
(* ------------------------------------------------------------------ *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pretty_ragged_rejected () =
  check "ragged row rejected" true
    (match Pretty.render ~header:[ "a"; "b" ] [ [ "only one" ] ] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_pretty_formatters () =
  Alcotest.(check string) "fi" "42" (Pretty.fi 42);
  Alcotest.(check string) "ff" "3.14" (Pretty.ff ~dp:2 3.14159);
  Alcotest.(check string) "pct" "50.0%" (Pretty.pct 0.5)

let test_interval_utilities () =
  let open Interval in
  check "contains" true (contains (make 1 4) 3);
  check "not contains hi" false (contains (make 1 4) 4);
  check_int "length" 3 (length (make 1 4));
  check_int "empty length" 0 (length (make 4 4));
  Alcotest.(check string) "to_string" "[1,4)" (to_string (make 1 4));
  check "hull" true (hull (make 1 3) (make 5 7) = make 1 7);
  check "hull with empty" true (hull (make 2 2) (make 5 7) = make 5 7)

let test_digraph_dot () =
  let g = ring 3 in
  let dot = Digraph.to_dot ~name:(fun v -> Printf.sprintf "v%d" v) g in
  check "digraph keyword" true (String.length dot > 0 && String.sub dot 0 7 = "digraph")

let test_pretty_table () =
  let s =
    Pretty.render ~header:[ "name"; "n" ] [ [ "ring"; "5" ]; [ "dag"; "12" ] ]
  in
  check "contains header" true (contains_sub s "name");
  check "contains row" true (contains_sub s "ring");
  check "right-aligns numbers" true (contains_sub s "  5")

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        check
          (Printf.sprintf "float %h survives" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok _ -> Alcotest.fail "float parsed as non-float"
      | Error e -> Alcotest.fail e)
    [ 1.2e-4; -1.2e-4; 5.0; -0.0; 0.1; 1e300; -7.25e-12; 3.14159265358979312;
      Float.min_float; 1.0 +. epsilon_float ]

let test_json_float_compact () =
  let s f = Json.to_string (Json.Float f) in
  Alcotest.(check string) "integral keeps .0" "5.0" (s 5.0);
  Alcotest.(check string) "negative zero" "-0.0" (s (-0.0));
  Alcotest.(check string) "shortest form" "0.00012" (s 1.2e-4);
  Alcotest.(check string) "nan degrades to null" "null" (s Float.nan);
  Alcotest.(check string) "inf degrades to null" "null" (s Float.infinity)

let test_json_number_classes () =
  (match Json.parse "42" with
   | Ok (Json.Int 42) -> ()
   | _ -> Alcotest.fail "plain int");
  (match Json.parse "-42" with
   | Ok (Json.Int (-42)) -> ()
   | _ -> Alcotest.fail "negative int");
  (match Json.parse "42.0" with
   | Ok (Json.Float f) -> check "fractional" true (f = 42.0)
   | _ -> Alcotest.fail "zero-fraction float");
  match Json.parse "1.2e-4" with
  | Ok (Json.Float f) -> check "exponent" true (f = 1.2e-4)
  | _ -> Alcotest.fail "exponent float"

let test_json_error_position () =
  match Json.parse "{\n  \"a\": tru }" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
    check "mentions line" true (contains_sub msg "line 2");
    check "mentions column" true (contains_sub msg "column")

let test_json_doc_roundtrip () =
  let doc =
    Json.Obj
      [ ("name", Json.String "hft \"quoted\"\n");
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
        ("ok", Json.Bool true) ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok doc' -> check "document round-trips" true (doc = doc')
  | Error e -> Alcotest.fail e

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hft_util"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic edges" `Quick test_digraph_basic;
          Alcotest.test_case "detach" `Quick test_digraph_detach;
          Alcotest.test_case "scc ring" `Quick test_scc_ring;
          Alcotest.test_case "scc dag" `Quick test_scc_dag;
          Alcotest.test_case "scc two loops" `Quick test_scc_two_loops;
          Alcotest.test_case "topological sort" `Quick test_topo;
          Alcotest.test_case "self-loop acyclicity" `Quick
            test_self_loop_acyclicity;
          Alcotest.test_case "cycle enumeration" `Quick test_cycles_enum;
          Alcotest.test_case "cycle bounds" `Quick test_cycles_bounded;
          Alcotest.test_case "cycle cap inside one start" `Quick
            test_cycles_cap_inside_start;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "bfs" `Quick test_bfs;
          qt prop_scc_condensation_acyclic;
          qt prop_transpose_involution;
          qt prop_cycles_are_cycles;
          qt prop_cycles_match_reference;
          qt prop_of_edges_matches_add_edge;
        ] );
      ( "mfvs",
        [
          Alcotest.test_case "ring" `Quick test_mfvs_ring;
          Alcotest.test_case "self loops" `Quick test_mfvs_self_loops;
          Alcotest.test_case "exact two rings" `Quick
            test_mfvs_exact_beats_nothing;
          Alcotest.test_case "exact shared vertex" `Quick
            test_mfvs_shared_vertex;
          qt prop_greedy_is_feedback_set;
          qt prop_exact_no_larger_than_greedy;
        ] );
      ( "interval",
        [
          Alcotest.test_case "overlap" `Quick test_interval_overlap;
          Alcotest.test_case "left edge classic" `Quick test_left_edge_classic;
          qt prop_left_edge_valid;
          qt prop_left_edge_optimal;
        ] );
      ("union_find", [ Alcotest.test_case "basic" `Quick test_union_find ]);
      ( "bitvec",
        [
          Alcotest.test_case "logic ops" `Quick test_bitvec_ops;
          Alcotest.test_case "mux" `Quick test_bitvec_mux;
          qt prop_bitvec_not_involutive;
          qt prop_bitvec_ones_popcount;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "table" `Quick test_pretty_table;
          Alcotest.test_case "ragged rejected" `Quick test_pretty_ragged_rejected;
          Alcotest.test_case "formatters" `Quick test_pretty_formatters;
        ] );
      ( "json",
        [
          Alcotest.test_case "float round-trip" `Quick test_json_float_roundtrip;
          Alcotest.test_case "float printing" `Quick test_json_float_compact;
          Alcotest.test_case "number classes" `Quick test_json_number_classes;
          Alcotest.test_case "error position" `Quick test_json_error_position;
          Alcotest.test_case "document round-trip" `Quick test_json_doc_roundtrip;
        ] );
      ( "misc",
        [
          Alcotest.test_case "interval utilities" `Quick test_interval_utilities;
          Alcotest.test_case "digraph dot" `Quick test_digraph_dot;
        ] );
    ]
