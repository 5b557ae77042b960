(** Full scan: every flip-flop becomes a scan cell.

    For ATPG purposes scan reduces the sequential problem to a
    combinational one: flip-flop outputs are pseudo-primary inputs and
    their D inputs pseudo-primary outputs — full scan is the limit case
    of partial scan, a one-frame view run through the same campaign
    loop as sequential ATPG ({!Hft_gate.Seq_atpg.campaign}). *)

open Hft_gate

type result = {
  tests : (int * bool) list list; (** one combinational test per entry *)
  stats : Seq_atpg.stats;
}

(** Combinational ATPG over the scan view of [nl]: full PI+FF
    controllability, PO+FF-input observability, one frame.  [nl] is
    not modified — call {!insert} for the structural chain.  The
    default [Drop] strategy collapses the fault list into structural
    equivalence classes and fault-simulates every generated test
    against the pending classes (two-valued, exact here because all
    sources are concretely assigned), dropping detections before the
    next PODEM call; [Naive] is the historical one-PODEM-call-per-fault
    loop.

    [guidance], [jobs] and [on_par_stats] behave as for
    {!Hft_gate.Seq_atpg.run}, under its default supervision — the
    campaign is that loop with [min_frames = max_frames = 1], so full
    scan follows the sequential engine's conventions:
    - within one test, commit order is drop pass, then [on_test],
      then the targeted class's resolution;
    - an exhausted PODEM retry ladder tries the random-pattern salvage
      first, and only a failed salvage resolves the class
      aborted-with-reason;
    - counters are the campaign loop's
      [hft.seq_atpg.{classes,faults,detected,dropped}] (there is no
      [hft.full_scan.dropped]). *)
val atpg :
  ?backtrack_limit:int -> ?strategy:Seq_atpg.strategy ->
  ?guidance:Podem.provider ->
  ?on_par_stats:(Hft_par.Stats.t -> unit) -> ?jobs:int -> Netlist.t ->
  faults:Fault.t list -> result

(** Structural insertion of the full chain ([Chain.insert] on all
    DFFs). *)
val insert : Netlist.t -> Chain.t
