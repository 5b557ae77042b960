(** Partial scan: scan a subset of flip-flops, chosen to break S-graph
    loops (Cheng–Agrawal / Lee–Reddy) or from RTL knowledge
    (survey §3.1, §4.1), then run sequential ATPG on the rest.

    The survey's headline comparison (E1/E4): RTL-level selection needs
    markedly fewer scan flip-flops than gate-level MFVS for equal loop
    breaking, because one RTL register covers [width] flip-flops chosen
    together. *)

open Hft_gate

(** Gate-level selection: MFVS of the FF S-graph, self-loops
    tolerated. *)
val select_gate_level : Netlist.t -> int list

(** RTL-guided selection: scan registers chosen on the data-path
    S-graph, mapped down to their DFF bits through the expansion's
    provenance. *)
val select_rtl_level : Hft_rtl.Datapath.t -> Expand.t -> int list

(** Sequential ATPG with the given scan set ({!Seq_atpg.run}
    pass-through under its default supervision: collapsing + fault
    dropping, [on_test] observes every generated test,
    [resolved]/[on_resolved] the campaign tape's ledger-row hooks
    (resume and append), [guidance] static-analysis ATPG guidance). *)
val atpg :
  ?backtrack_limit:int -> ?max_frames:int -> ?on_test:(Seq_atpg.test -> unit) ->
  ?resolved:(string -> Hft_obs.Ledger.row option) ->
  ?on_resolved:(Hft_obs.Ledger.row -> unit) ->
  ?guidance:Podem.provider ->
  ?on_par_stats:(Hft_par.Stats.t -> unit) ->
  ?jobs:int ->
  Netlist.t -> faults:Fault.t list -> scanned:int list -> Seq_atpg.stats
