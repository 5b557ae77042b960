(* Hft_par: the multicore ATPG engine's determinism contract.

   The whole point of the domain-pool sharding is that it is invisible
   in the results: coverage, verdicts, test sets, engine counters and
   the fault-forensics waterfall must be bit-identical at any jobs
   count, chaos-killed worker domains included.  These tests pin that
   contract, plus how the pool hands out tasks and the thread safety of
   the metric registry for writers on several domains at once (campaign
   workers capture their writes and the commit thread replays them). *)

open Hft_gate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_obs f =
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
    (fun () -> Hft_obs.with_enabled true f)

(* ------------------------------------------------------------------ *)
(* Knobs                                                              *)
(* ------------------------------------------------------------------ *)

let test_knobs () =
  check_int "zero clamps to 1" 1 (Hft_par.clamp_jobs 0);
  check_int "negative clamps to 1" 1 (Hft_par.clamp_jobs (-3));
  check_int "in range passes" 4 (Hft_par.clamp_jobs 4);
  check_int "huge clamps to 64" 64 (Hft_par.clamp_jobs 1000)

(* ------------------------------------------------------------------ *)
(* The pool itself                                                    *)
(* ------------------------------------------------------------------ *)

(* Sections at every jobs count, over empty, tiny and long waves of
   tasks whose work differs fiftyfold: every index runs exactly once
   and returns its own result, each worker's workspace is built at most
   once, each worker claims its indexes lowest first (the commit
   order), and the collector counts every task.  Under Shard chaos at
   probability 1 every shard dies before claiming anything. *)
let test_pool_claims () =
  let work k =
    let acc = ref k in
    for i = 1 to (if k mod 5 = 0 then 20_000 else 400) do
      acc := ((!acc * 31) + i) land 0xffff
    done;
    Sys.opaque_identity !acc
  in
  let value k = (2 * k) + 1 in
  let rec descending = function
    | a :: (b :: _ as rest) -> a > b && descending rest
    | [ _ ] | [] -> true
  in
  List.iter
    (fun jobs ->
      let sizes = [ 0; 1; jobs - 1; jobs; 37; 200 ] in
      let pool = Hft_par.Pool.get ~jobs in
      (* Each workspace is the list of indexes its worker claimed in the
         current wave, newest first. *)
      let lock = Mutex.create () and workspaces = ref [] in
      let init () =
        let mine = ref [] in
        Mutex.protect lock (fun () -> workspaces := mine :: !workspaces);
        mine
      in
      let stats = Hft_par.Stats.collector ~jobs in
      Hft_par.Pool.parallel pool ~stats ~init (fun section ->
          List.iter
            (fun n ->
              let tag = Printf.sprintf "-j%d n=%d" jobs n in
              let runs = Array.init n (fun _ -> Atomic.make 0) in
              let results, fails =
                section.Hft_par.run ~n ~f:(fun mine k ->
                    Atomic.incr runs.(k);
                    mine := k :: !mine;
                    ignore (work k : int);
                    value k)
              in
              check_int (tag ^ ": no shard died") 0 (List.length fails);
              check (tag ^ ": every index ran once") true
                (Array.for_all (fun r -> Atomic.get r = 1) runs);
              check (tag ^ ": results.(k) = Some (f k)") true
                (results = Array.init n (fun k -> Some (value k)));
              List.iter
                (fun mine ->
                  check (tag ^ ": each worker claims ascending") true
                    (descending !mine);
                  mine := [])
                !workspaces)
            sizes);
      check
        (Printf.sprintf "-j%d: init at most once per worker" jobs)
        true
        (List.length !workspaces <= jobs);
      check_int
        (Printf.sprintf "-j%d: tasks counted" jobs)
        (List.fold_left ( + ) 0 sizes)
        (Hft_par.Stats.finish stats).Hft_par.Stats.s_tasks;
      Hft_robust.Chaos.with_config
        { Hft_robust.Chaos.seed = 3; prob = 1.0;
          sites = [ Hft_robust.Chaos.Shard ]; arm_after = 0 }
        (fun () ->
          Hft_par.Pool.parallel pool ~stats:(Hft_par.Stats.collector ~jobs)
            ~init:ignore (fun section ->
              List.iter
                (fun n ->
                  let tag = Printf.sprintf "-j%d n=%d under chaos" jobs n in
                  let results, fails =
                    section.Hft_par.run ~n ~f:(fun () k -> value k)
                  in
                  check (tag ^ ": every result None") true
                    (Array.for_all Option.is_none results);
                  check_int (tag ^ ": one failure per shard") jobs
                    (List.length fails))
                sizes)))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Observability layer under concurrent hammering                     *)
(* ------------------------------------------------------------------ *)

(* Four domains hammer the registry at once; every write must land
   exactly once (lost updates were the failure mode of the pre-mutex
   implementation). *)
let test_obs_hammer () =
  with_obs @@ fun () ->
  let n_dom = 4 and per = 2000 in
  let body () =
    for i = 1 to per do
      Hft_obs.Registry.incr "hft.par.hammer";
      Hft_obs.Registry.observe "hft.par.lat" (float_of_int (i land 7))
    done
  in
  let others = List.init (n_dom - 1) (fun _ -> Domain.spawn body) in
  body ();
  List.iter Domain.join others;
  check_int "counter increments all land" (n_dom * per)
    (Hft_obs.Registry.count "hft.par.hammer");
  check_int "observations all land" (n_dom * per)
    (Hft_obs.Registry.count "hft.par.lat")

(* ------------------------------------------------------------------ *)
(* Differential harness                                               *)
(* ------------------------------------------------------------------ *)

(* A campaign's ledger rows in class order, as tape records: every
   class's resolution and charges. *)
let ledger_rows (s : Seq_atpg.stats) =
  List.map
    (fun r -> Hft_util.Json.to_string (Hft_obs.Ledger.record_to_json (Class r)))
    s.rows

let waterfall (s : Seq_atpg.stats) =
  Hft_util.Json.to_string
    (Hft_obs.Ledger.waterfall_json (Hft_obs.Ledger.waterfall s.rows))

type fingerprint = {
  fp_stats : Seq_atpg.stats;  (** rows masked: [fp_rows] holds them *)
  fp_waterfall : string;
  fp_backtracks : int;
  fp_events : int;
  fp_unrolls : int;
  fp_retries : int;
  fp_degraded : int;
  fp_tests : (int * bool array array * bool array) list;
  fp_rows : string list;
  fp_resolutions : Hft_obs.Ledger.resolution list;
}

let seq_fingerprint ?on_par_stats ?supervisor ~jobs nl ~faults ~scanned =
  with_obs @@ fun () ->
  let tests = ref [] in
  let stats =
    Seq_atpg.run ~backtrack_limit:30 ~max_frames:3 ~jobs ?on_par_stats
      ?supervisor ~on_test:(fun t ->
        tests :=
          (t.Seq_atpg.t_frames, t.Seq_atpg.t_pi_vectors,
           t.Seq_atpg.t_scan_state)
          :: !tests)
      nl ~faults ~scanned
  in
  {
    fp_stats = { stats with rows = [] };
    fp_waterfall = waterfall stats;
    fp_backtracks = Hft_obs.Registry.count "hft.podem.backtracks";
    fp_events = Hft_obs.Registry.count "hft.fsim.events";
    fp_unrolls = Hft_obs.Registry.count "hft.seq_atpg.unrolls";
    fp_retries = Hft_obs.Registry.count "hft.robust.retries";
    fp_degraded = Hft_obs.Registry.count "hft.robust.degraded";
    fp_tests = List.rev !tests;
    fp_rows = ledger_rows stats;
    fp_resolutions =
      List.map (fun (r : Hft_obs.Ledger.row) -> r.lr_resolution) stats.rows;
  }

let check_identical tag base fp =
  check (tag ^ ": stats") true (fp.fp_stats = base.fp_stats);
  Alcotest.(check string)
    (tag ^ ": waterfall") base.fp_waterfall fp.fp_waterfall;
  check_int (tag ^ ": podem backtracks") base.fp_backtracks fp.fp_backtracks;
  check_int (tag ^ ": fsim events") base.fp_events fp.fp_events;
  check_int (tag ^ ": unrolls") base.fp_unrolls fp.fp_unrolls;
  check_int (tag ^ ": retries") base.fp_retries fp.fp_retries;
  check_int (tag ^ ": degraded") base.fp_degraded fp.fp_degraded;
  check (tag ^ ": test set") true (fp.fp_tests = base.fp_tests);
  Alcotest.(check (list string))
    (tag ^ ": ledger rows") base.fp_rows fp.fp_rows

(* Sequential ATPG on seeded random circuits: -j2/-j4 must reproduce
   the -j1 run bit for bit, ledger rows included.  The deadline leg
   exhausts retry ladders with step deadlines of k steps, so ladders
   that workers ran end in salvage searches and reasoned aborts, which
   must commit exactly as at -j1. *)
let test_seq_differential () =
  let salvaged = ref 0 and reasoned = ref 0 in
  List.iter
    (fun seed ->
      let nl = Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14 in
      let faults = Fault.collapsed nl in
      let scanned =
        List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl)
      in
      let legs ?supervisor tag =
        let base = seq_fingerprint ?supervisor ~jobs:1 nl ~faults ~scanned in
        check (tag ^ ": campaign nonempty") true
          (base.fp_stats.Seq_atpg.total > 0);
        List.iter
          (fun jobs ->
            let fp = seq_fingerprint ?supervisor ~jobs nl ~faults ~scanned in
            check_identical (Printf.sprintf "%s -j%d" tag jobs) base fp)
          [ 2; 4 ];
        base.fp_resolutions
      in
      ignore (legs (Printf.sprintf "seed %d" seed) : _ list);
      List.iter
        (fun k ->
          List.iter
            (function
              | Hft_obs.Ledger.Salvaged _ -> incr salvaged
              | Hft_obs.Ledger.Aborted { reason = Some _; _ } -> incr reasoned
              | _ -> ())
            (legs
               ~supervisor:{ Hft_robust.Supervisor.deadline_steps = Some k }
               (Printf.sprintf "seed %d deadline %d" seed k)))
        [ 3; 8; 20 ])
    [ 1; 2; 3 ];
  check "deadlines salvage some class" true (!salvaged > 0);
  check "deadlines abort some class with a reason" true (!reasoned > 0)

(* Full-scan combinational ATPG on the paper's Figure 1 data paths:
   same contract on the one-frame scan view, whose workers run on
   {!Netlist.copy} workspaces of the shared netlist. *)
let test_full_scan_differential () =
  List.iter
    (fun (name, which) ->
      let _, d = Hft_core.Fig1_exp.datapath which in
      let nl = (Expand.of_datapath d).Expand.netlist in
      let faults = Fault.collapsed nl in
      let run jobs =
        with_obs @@ fun () ->
        let r = Hft_scan.Full_scan.atpg ~backtrack_limit:50 ~jobs nl ~faults in
        let s = r.Hft_scan.Full_scan.stats in
        ( s,
          r.Hft_scan.Full_scan.tests,
          waterfall s,
          Hft_obs.Registry.count "hft.podem.backtracks",
          ledger_rows s )
      in
      let s1, t1, w1, b1, j1 = run 1 in
      List.iter
        (fun jobs ->
          let s, t, w, b, j = run jobs in
          let tag = Printf.sprintf "%s -j%d" name jobs in
          check (tag ^ ": stats") true (s = s1);
          check (tag ^ ": test set") true (t = t1);
          Alcotest.(check string) (tag ^ ": waterfall") w1 w;
          check_int (tag ^ ": backtracks") b1 b;
          Alcotest.(check (list string)) (tag ^ ": ledger rows") j1 j)
        [ 2; 4 ])
    [ ("fig1b", Hft_core.Fig1_exp.B); ("fig1c", Hft_core.Fig1_exp.C) ]

(* ------------------------------------------------------------------ *)
(* Chaos: killed worker domains degrade, never diverge                *)
(* ------------------------------------------------------------------ *)

(* With the Shard site firing on every check, every speculation dies
   and the orchestrator recomputes each class inline — the campaign
   must degrade (counted by hft.robust.degraded) and still land on the
   -j1 results exactly, ledger rows included. *)
let test_shard_chaos () =
  let nl = Netlist_gen.sequential ~seed:5 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  let base = seq_fingerprint ~jobs:1 nl ~faults ~scanned in
  let shard_chaos f =
    Hft_robust.Chaos.with_config
      {
        Hft_robust.Chaos.seed = 3;
        prob = 1.0;
        sites = [ Hft_robust.Chaos.Shard ];
        arm_after = 0;
      }
      f
  in
  let fp =
    shard_chaos (fun () -> seq_fingerprint ~jobs:4 nl ~faults ~scanned)
  in
  check "some shards were killed" true (fp.fp_degraded > 0);
  (* Everything but the degraded count must match the clean sequential
     run. *)
  check_identical "chaos" base { fp with fp_degraded = base.fp_degraded };
  (* And a clean -j1 run under the same chaos config is untouched:
     the Shard site only exists inside pool worker bodies. *)
  check_identical "sequential under shard chaos" base
    (shard_chaos (fun () -> seq_fingerprint ~jobs:1 nl ~faults ~scanned))

(* The chaos injector numbers its injections process-wide and killed
   shards advance the count, so an abort reason's "#N" is not
   comparable across jobs counts: drop the digits after each '#'. *)
let mask_injection_seq s =
  let b = Buffer.create (String.length s) and after_hash = ref false in
  String.iter
    (fun c ->
      if not (!after_hash && c >= '0' && c <= '9') then begin
        after_hash := c = '#';
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

(* Nested chaos: a Shard-site kill whose inline recompute then hits
   Podem-site injections.  The orchestrator's fallback path runs the
   full supervised PODEM — so the -j4 run must land exactly on the -j1
   [Podem]-only run: same stats, waterfall, tests, ledger rows (up to
   the injection numbers in abort reasons), and the same
   hft.robust.retries count (the dead worker's half-done attempts are
   discarded with its telemetry, never double-counted), with the shard
   deaths counted on top of the base run's degradations. *)
let test_nested_shard_podem_chaos () =
  let nl = Netlist_gen.sequential ~seed:5 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  let chaos sites f =
    Hft_robust.Chaos.with_config
      { Hft_robust.Chaos.seed = 3; prob = 1.0; sites; arm_after = 0 }
      f
  in
  (* prob 1.0 makes every armed check trip, so which checks fire does
     not depend on the shared chaos RNG's draw order across domains. *)
  let base =
    chaos [ Hft_robust.Chaos.Podem ] (fun () ->
        seq_fingerprint ~jobs:1 nl ~faults ~scanned)
  in
  check "podem chaos exercises the retry ladder" true (base.fp_retries > 0);
  let fp =
    chaos [ Hft_robust.Chaos.Shard; Hft_robust.Chaos.Podem ] (fun () ->
        seq_fingerprint ~jobs:4 nl ~faults ~scanned)
  in
  check "shards were killed around the podem injections" true
    (fp.fp_degraded > base.fp_degraded);
  check "nested chaos: stats" true (fp.fp_stats = base.fp_stats);
  Alcotest.(check string)
    "nested chaos: waterfall" base.fp_waterfall fp.fp_waterfall;
  check "nested chaos: test set" true (fp.fp_tests = base.fp_tests);
  check_int "nested chaos: retries not double-counted" base.fp_retries
    fp.fp_retries;
  Alcotest.(check (list string))
    "nested chaos: ledger rows"
    (List.map mask_injection_seq base.fp_rows)
    (List.map mask_injection_seq fp.fp_rows)

(* ------------------------------------------------------------------ *)
(* Scheduler telemetry: conservation laws and observationality        *)
(* ------------------------------------------------------------------ *)

(* The stats record is an accounting instrument, so it obeys accounting
   identities: every dispatched task lands in exactly one of
   hit/miss/inline, and no total reports more time than the campaign
   had (10% + 5 ms tolerance for clock jitter — busy and wall come from
   different clock reads). *)
let check_stats_laws tag (s : Hft_par.Stats.t) =
  let open Hft_par.Stats in
  check_int
    (tag ^ ": task bucketing conserves (hits + misses + inline = tasks)")
    s.s_tasks
    (s.s_spec_hits + s.s_spec_misses + s.s_inline);
  let within budget ns =
    ns <= int_of_float (1.1 *. float_of_int budget) + 5_000_000
  in
  check (tag ^ ": busy <= jobs x wall") true
    (within (s.s_jobs * s.s_wall_ns) s.s_busy_ns);
  check (tag ^ ": critical <= wall") true
    (within s.s_wall_ns s.s_critical_ns);
  check (tag ^ ": utilization in [0,1]") true
    (utilization s >= 0.0 && utilization s <= 1.1)

let test_stats_conservation () =
  let nl = Netlist_gen.sequential ~seed:2 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  List.iter
    (fun jobs ->
      let captured = ref None in
      with_obs (fun () ->
          ignore
            (Seq_atpg.run ~backtrack_limit:30 ~max_frames:3 ~jobs
               ~on_par_stats:(fun s -> captured := Some s)
               nl ~faults ~scanned
              : Seq_atpg.stats));
      match !captured with
      | None -> Alcotest.fail (Printf.sprintf "-j%d: no stats reported" jobs)
      | Some s ->
        let tag = Printf.sprintf "seq -j%d" jobs in
        check_int (tag ^ ": jobs") jobs s.Hft_par.Stats.s_jobs;
        check_stats_laws tag s;
        if jobs = 1 then begin
          (* Degenerate sequential summary: one fully-busy worker. *)
          check (tag ^ ": sequential utilization is 1") true
            (Hft_par.Stats.utilization s = 1.0);
          check_int (tag ^ ": sequential has no tasks") 0
            s.Hft_par.Stats.s_tasks
        end
        else
          check (tag ^ ": parallel run dispatched tasks") true
            (s.Hft_par.Stats.s_tasks > 0))
    [ 1; 2; 4 ]

(* Same laws on the one-frame full-scan view of the campaign loop. *)
let test_full_scan_stats () =
  let captured = ref None in
  with_obs (fun () ->
      let _, d = Hft_core.Fig1_exp.datapath Hft_core.Fig1_exp.B in
      let nl = (Expand.of_datapath d).Expand.netlist in
      ignore
        (Hft_scan.Full_scan.atpg ~backtrack_limit:50 ~jobs:4
           ~on_par_stats:(fun s -> captured := Some s)
           nl ~faults:(Fault.collapsed nl)
          : Hft_scan.Full_scan.result));
  match !captured with
  | None -> Alcotest.fail "full-scan: no stats reported"
  | Some s -> check_stats_laws "full-scan -j4" s

(* A campaign fingerprint plus its scheduler summary. *)
let fingerprint_with_stats ~jobs nl ~faults ~scanned =
  let captured = ref None in
  let fp =
    seq_fingerprint ~on_par_stats:(fun s -> captured := Some s) ~jobs nl
      ~faults ~scanned
  in
  match !captured with
  | Some s -> (fp, s)
  | None -> Alcotest.fail (Printf.sprintf "-j%d: no stats reported" jobs)

(* A partial-scan draw where half the faults are detected, most of them
   by drop passes: a test committed early in a window drops classes
   whose ladders ran speculatively in the same window, so the commit
   loop must take its miss path, and still land on the -j1 run. *)
let test_window_misses () =
  let nl = Netlist_gen.sequential ~seed:1 ~n_pi:6 ~n_dff:4 ~n_gates:30 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  let base = seq_fingerprint ~jobs:1 nl ~faults ~scanned in
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "misses -j%d" jobs in
      let fp, s = fingerprint_with_stats ~jobs nl ~faults ~scanned in
      check_identical tag base fp;
      check_stats_laws tag s;
      check (tag ^ ": speculation missed") true
        (s.Hft_par.Stats.s_spec_misses > 0))
    [ 2; 4 ]

(* A draw with more pending classes than two windows, even at -j4: a
   window is picked only after the previous one committed, from the
   classes its commits left pending, so classes an earlier wave's tests
   dropped are never dispatched. *)
let test_later_waves () =
  let nl = Netlist_gen.sequential ~seed:2 ~n_pi:4 ~n_dff:3 ~n_gates:80 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  let classes =
    List.length (Fault_collapse.partition (Fault_collapse.compute nl) faults)
  in
  let base = seq_fingerprint ~jobs:1 nl ~faults ~scanned in
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "later waves -j%d" jobs in
      let fp, s = fingerprint_with_stats ~jobs nl ~faults ~scanned in
      check_identical tag base fp;
      check_stats_laws tag s;
      check (tag ^ ": more than two waves") true (s.Hft_par.Stats.s_waves > 2);
      check (tag ^ ": dropped classes never dispatched") true
        (s.Hft_par.Stats.s_tasks < classes))
    [ 2; 4 ]

(* Telemetry is observational: collecting it must not move a single
   bit of the campaign's results, ledger rows included. *)
let test_stats_observational () =
  let nl = Netlist_gen.sequential ~seed:4 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  List.iter
    (fun jobs ->
      let base = seq_fingerprint ~jobs nl ~faults ~scanned in
      let fp =
        seq_fingerprint ~on_par_stats:(fun _ -> ()) ~jobs nl ~faults ~scanned
      in
      check_identical (Printf.sprintf "stats on vs off -j%d" jobs) base fp)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* End-to-end: the campaign entry point                               *)
(* ------------------------------------------------------------------ *)

(* Flow.test_campaign with ~jobs — the path the CLI exercises — must
   agree with the sequential campaign on coverage and waterfall. *)
let test_campaign_jobs () =
  let g = Hft_cdfg.Paper_fig1.graph () in
  let r = Hft_core.Flow.synthesize ~width:4 Hft_core.Flow.Partial_scan g in
  let run jobs =
    with_obs @@ fun () ->
    let c =
      Hft_core.Flow.test_campaign ~backtrack_limit:20 ~max_frames:2 ~sample:4
        ~seed:7 ~n_patterns:16 ~guided:false ~jobs r
    in
    ( c.Hft_core.Flow.c_atpg,
      Hft_gate.Fsim.coverage c.Hft_core.Flow.c_fsim,
      c.Hft_core.Flow.c_patterns_stored,
      waterfall c.Hft_core.Flow.c_atpg )
  in
  let s1, cov1, p1, w1 = run 1 in
  List.iter
    (fun jobs ->
      let s, cov, p, w = run jobs in
      let tag = Printf.sprintf "campaign -j%d" jobs in
      check (tag ^ ": atpg stats") true (s = s1);
      check (tag ^ ": fsim coverage") true (cov = cov1);
      check_int (tag ^ ": patterns stored") p1 p;
      Alcotest.(check string) (tag ^ ": waterfall") w1 w)
    [ 2; 4 ]

let () =
  Alcotest.run "hft_par"
    [
      ( "par",
        [
          Alcotest.test_case "knobs" `Quick test_knobs;
          Alcotest.test_case "pool claims" `Quick test_pool_claims;
          Alcotest.test_case "obs hammer" `Quick test_obs_hammer;
          Alcotest.test_case "seq differential" `Quick test_seq_differential;
          Alcotest.test_case "full-scan differential" `Quick
            test_full_scan_differential;
          Alcotest.test_case "shard chaos" `Quick test_shard_chaos;
          Alcotest.test_case "nested shard+podem chaos" `Quick
            test_nested_shard_podem_chaos;
          Alcotest.test_case "stats conservation" `Quick
            test_stats_conservation;
          Alcotest.test_case "full-scan stats" `Quick test_full_scan_stats;
          Alcotest.test_case "window misses" `Quick test_window_misses;
          Alcotest.test_case "later waves" `Quick test_later_waves;
          Alcotest.test_case "stats observational" `Quick
            test_stats_observational;
          Alcotest.test_case "campaign jobs" `Quick test_campaign_jobs;
        ] );
    ]
